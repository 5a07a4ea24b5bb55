package ballot

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

// MaxOf returns the largest ballot of a non-empty slice and Zero otherwise.
func MaxOf(bs []Ballot) Ballot {
	out := Zero
	for _, b := range bs {
		out = Max(out, b)
	}
	return out
}
