// Package scale is the million-process simulation backend: a
// struct-of-arrays process-state store and a serial epidemic round
// kernel that together make a 1e6-process figure sweep finish on one
// machine within a small, published memory-per-process budget.
//
// The ordinary simulation stack (internal/sim on internal/simnet over
// internal/core) carries a full protocol engine per process — maps for
// the seen window, per-process metric counters, string ids everywhere —
// which is exactly right for protocol fidelity at 1k-50k processes and
// exactly wrong at a million: the per-process maps and slice headers
// dominate memory long before the interesting scale. This package keeps
// the paper's dissemination model (Fig. 7: forward on first receipt to
// ln(S)+c random group members, self-elect with pSel = g/S and push to
// each supertopic-table entry with pA = a/z, under per-message Bernoulli
// loss) but flattens all process state:
//
//   - process identity is a dense uint32 index; names exist only at the
//     boundary, via the interning Table;
//   - membership views and supertopic tables are two flat uint32 arrays
//     indexed by (group base + member offset × stride);
//   - the seen window, the in-flight round and the next round are three
//     N-bit bitsets;
//   - metrics stream through a Sink into metrics.Registry every round
//     instead of accumulating per process.
//
// Determinism contract: every random decision is a pure hash of (seed,
// event, round, process), and the kernel runs one round at a time on one
// goroutine, so a configuration's results are byte-identical on every
// run. Kernels share no mutable state, so a sweep runs many of them in
// parallel; Config.Workers is ignored.
package scale

// Table interns strings of type K as dense uint32 ids, so hot-path
// state costs 4 bytes per reference instead of a 16-byte string header
// plus the bytes themselves. Interning is append-only: ids are assigned
// in first-sight order, which makes them deterministic whenever the
// intern order is.
//
// The zero value is unusable; use NewTable. Not goroutine-safe: intern
// everything during setup, then share the table read-only.
type Table[K ~string] struct {
	index map[K]uint32
	names []K
}

// NewTable returns an empty interning table.
func NewTable[K ~string]() *Table[K] {
	return &Table[K]{index: make(map[K]uint32)}
}

// Intern returns k's dense id, assigning the next free one on first
// sight.
func (t *Table[K]) Intern(k K) uint32 {
	if id, ok := t.index[k]; ok {
		return id
	}
	id := uint32(len(t.names))
	t.index[k] = id
	t.names = append(t.names, k)
	return id
}

// Lookup returns k's id without interning it.
func (t *Table[K]) Lookup(k K) (uint32, bool) {
	id, ok := t.index[k]
	return id, ok
}

// Name returns the string interned as id. It panics for ids the table
// never issued, like any out-of-range index.
func (t *Table[K]) Name(id uint32) K { return t.names[id] }

// Len returns the number of interned strings.
func (t *Table[K]) Len() int { return len(t.names) }
