package linearize

import "sync"

// History records invocations and responses concurrently: the live nemesis
// drivers call Invoke before handing a command to the client and Resolve
// when (if ever) its reply lands. Operations never resolved keep
// Ret == Infinity; Discard removes operations the caller has proven never
// took effect (an unacknowledged write absent from the merged apply
// history, or an unacknowledged read, which constrains nothing).
type History struct {
	mu        sync.Mutex
	ops       []Op
	discarded map[int]bool
}

// Invoke records the call edge of one operation and returns its index.
func (h *History) Invoke(client uint64, kind Kind, key, arg string, at int64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ops = append(h.ops, Op{
		Client: client, Kind: kind, Key: key, Arg: arg,
		Call: at, Ret: Infinity,
	})
	return len(h.ops) - 1
}

// Resolve records the response edge of operation idx.
func (h *History) Resolve(idx int, out string, found bool, at int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ops[idx].Out = out
	h.ops[idx].Found = found
	h.ops[idx].Ret = at
}

// Discard excludes operation idx from the checked history.
func (h *History) Discard(idx int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.discarded == nil {
		h.discarded = make(map[int]bool)
	}
	h.discarded[idx] = true
}

// Op returns a snapshot of operation idx.
func (h *History) Op(idx int) Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ops[idx]
}

// Resolved reports how many operations drew a reply.
func (h *History) Resolved() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, o := range h.ops {
		if o.Ret != Infinity {
			n++
		}
	}
	return n
}

// Unresolved reports how many non-discarded operations never resolved.
func (h *History) Unresolved() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for i, o := range h.ops {
		if o.Ret == Infinity && !h.discarded[i] {
			n++
		}
	}
	return n
}

// Ops returns the checkable history: every invoked operation except the
// discarded ones.
func (h *History) Ops() []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Op, 0, len(h.ops))
	for i, o := range h.ops {
		if !h.discarded[i] {
			out = append(out, o)
		}
	}
	return out
}
