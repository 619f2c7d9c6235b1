package sim

import "math/rand"

// RNG wraps math/rand with a convenience constructor so that every
// experiment takes a single root seed and derives independent streams for
// its components (page allocator, noise process, traffic jitter, ...).
// Derived streams are decorrelated by splitmix-style seed scrambling.
//
// An RNG's position in its stream is observable and restorable: the
// underlying source counts its draws, so a stream state is just
// (seed, draws) and Restore replays the source to the recorded position.
// This is what makes honest machine snapshotting possible — a restored
// world continues with exactly the random decisions the original would
// have made.
type RNG struct {
	//packetlint:transient stateless view over src; Restore repositions src and Rand follows
	*rand.Rand
	src *countedSource
}

// countedSource wraps the stock math/rand source, counting state
// advances. Both Int63 and Uint64 advance the generator by exactly one
// step, so replaying N draws of either reproduces the state after any
// interleaving of N calls.
type countedSource struct {
	src   rand.Source64
	seedv int64
	draws uint64
}

func (s *countedSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countedSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countedSource) Seed(seed int64) {
	s.seedv = seed
	s.draws = 0
	s.src.Seed(seed)
}

// RNGState is a snapshot of an RNG's stream position.
type RNGState struct {
	Seed  int64
	Draws uint64
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	src := &countedSource{src: rand.NewSource(seed).(rand.Source64), seedv: seed}
	return &RNG{Rand: rand.New(src), src: src}
}

// Snapshot captures the RNG's stream position.
func (r *RNG) Snapshot() RNGState {
	return RNGState{Seed: r.src.seedv, Draws: r.src.draws}
}

// Restore rewinds (or fast-forwards) the RNG to a previously captured
// position, in place and without allocating. When the stream already sits
// on the right seed at or before the target position, only the delta is
// replayed — restoring a machine whose long offline phase burned millions
// of draws costs O(position difference), not O(total history). A seed
// mismatch, or a position past the target, falls back to reseeding and
// replaying from the start; either way the cost per replayed draw is one
// cheap generator step.
func (r *RNG) Restore(st RNGState) {
	if r.src.seedv != st.Seed || r.src.draws > st.Draws {
		r.src.Seed(st.Seed)
	}
	for r.src.draws < st.Draws {
		r.src.src.Uint64()
		r.src.draws++
	}
}

// Reseed resets the RNG, in place, to the start of the stream for seed —
// equivalent to replacing it with NewRNG(seed) but allocation-free. The
// online-phase decorrelation hooks (testbed.ReseedOnline) run once per
// warm-started trial, so this sits on the rig-lease hot path.
func (r *RNG) Reseed(seed int64) {
	r.src.Seed(seed)
}

// DeriveSeed maps a root seed plus a stream label to a new seed that is
// decorrelated from the root and from every other label. It is the seed-
// space counterpart of Derive, used where a component needs an int64 seed
// (e.g. the experiment runner deriving per-trial seeds) rather than an
// RNG.
func DeriveSeed(root int64, label string) int64 {
	return finalizeSeed(mixLabel(uint64(root), label))
}

// DeriveSeedParts is DeriveSeed(root, a+b) without materializing the
// concatenated label. Call sites that derive per-rig online seeds from a
// constant prefix plus a rig label use it to keep the warm-trial lease
// path allocation-free.
func DeriveSeedParts(root int64, a, b string) int64 {
	return finalizeSeed(mixLabel(mixLabel(uint64(root), a), b))
}

// mixLabel folds a label into the running seed hash (FNV-style).
func mixLabel(h uint64, label string) uint64 {
	for _, c := range label {
		h ^= uint64(c)
		h *= 0x100000001b3 // FNV prime
	}
	return h
}

// finalizeSeed is the splitmix64 finalizer for avalanche.
func finalizeSeed(h uint64) int64 {
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}

// Derive returns a new independent RNG derived from this RNG's seed space
// and the given stream label. Two streams with different labels are
// decorrelated even though they share a root seed.
func Derive(root int64, label string) *RNG {
	return NewRNG(DeriveSeed(root, label))
}

// ShuffleIndex returns the swap partner rand.Shuffle draws for position i
// (i >= 1), consuming exactly the draws Shuffle would. Shuffle fixes
// positions from the tail down, so calling ShuffleIndex(n-1), then
// ShuffleIndex(n-2), ... down to 1 and swapping as Shuffle does
// reproduces Shuffle(n, swap) exactly — which lets a caller run the
// shuffle one step at a time, only as far as it needs the result.
func (r *RNG) ShuffleIndex(i int) int {
	if i > 1<<31-1-1 {
		return int(r.Int63n(int64(i + 1)))
	}
	// math/rand's unexported int31n, which Shuffle uses below 2^31.
	n := uint32(i + 1)
	prod := uint64(r.Uint32()) * uint64(n)
	if low := uint32(prod); low < n {
		thresh := -n % n
		for low < thresh {
			prod = uint64(r.Uint32()) * uint64(n)
			low = uint32(prod)
		}
	}
	return int(prod >> 32)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Jitter returns v multiplied by a uniform factor in [1-frac, 1+frac].
func (r *RNG) Jitter(v float64, frac float64) float64 {
	return v * (1 + frac*(2*r.Float64()-1))
}
