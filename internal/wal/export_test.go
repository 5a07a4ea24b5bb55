package wal

// Hooks for the external test package: FuzzWALReplay's reference scan
// decodes payloads with the record codec and must tell deletions apart.

var DecodeBatch = decodeBatch

func IsTombstone(v any) bool {
	_, dead := v.(tombstone)
	return dead
}
