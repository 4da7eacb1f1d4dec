package scale

// Hash-keyed randomness for the scale kernel. At a million processes a
// per-process *rand.Rand (the internal/sim idiom) costs a pointer, an
// allocation and ~5KB of generator state each — more than the entire
// per-process budget here. Instead every decision sequence is a
// splitmix64 stream keyed by a pure hash of (seed, role, event, round,
// process): stateless across rounds, allocation-free, and independent
// of the order in which processes are visited. This is the same
// move simnet made for pair-failure coins (xrand.HashCoin), applied to
// all kernel randomness.

// Stream tags keep the view-building, supertopic, publisher-choice and
// per-round forwarding streams statistically independent.
const (
	tagView uint64 = iota + 1
	tagSuper
	tagPub
	tagRound
)

// mixFinal is the splitmix64 finalizer — the same avalanche
// xrand.SeedFor and core's bloom hashing use.
func mixFinal(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// mix2 hashes (seed, tag, a) into a stream key.
func mix2(seed, tag, a uint64) uint64 {
	h := mixFinal(seed + 0x9e3779b97f4a7c15*tag)
	return mixFinal(h + 0x9e3779b97f4a7c15*a)
}

// mix3 hashes (seed, tag, a, b) into a stream key.
func mix3(seed, tag, a, b uint64) uint64 {
	return mixFinal(mix2(seed, tag, a) + 0x9e3779b97f4a7c15*b)
}

// sm64 is a splitmix64 stream: advance the counter by the golden-gamma,
// finalize for output. Period 2^64, passes BigCrush, two arithmetic ops
// plus the finalizer per draw.
type sm64 uint64

// next returns the next 64 uniform bits.
func (s *sm64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	return mixFinal(uint64(*s))
}

// intn returns a uniform draw from [0, n). The modulo bias is below
// n/2^64 — unobservable for any group size — and keeps the draw a
// single multiply-free operation.
func (s *sm64) intn(n uint32) uint32 {
	return uint32(s.next() % uint64(n))
}

// float returns a uniform draw from [0, 1) with 53 random bits.
func (s *sm64) float() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}
