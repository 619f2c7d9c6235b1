package sim

import (
	"testing"
	"testing/quick"
)

// TestRNGSnapshotReplay: a restored RNG must reproduce the exact draw
// sequence the original produced after the snapshot point, across every
// draw kind the simulation uses (the kinds consume source steps at
// different rates, so this also guards the source-level counting).
func TestRNGSnapshotReplay(t *testing.T) {
	r := NewRNG(42)
	// Burn a mixed prefix.
	for i := 0; i < 1000; i++ {
		switch i % 5 {
		case 0:
			r.Intn(1000)
		case 1:
			r.Float64()
		case 2:
			r.ExpFloat64()
		case 3:
			r.Int63()
		case 4:
			r.Bernoulli(0.3)
		}
	}
	st := r.Snapshot()
	var want []float64
	for i := 0; i < 200; i++ {
		want = append(want, r.Float64(), float64(r.Intn(1<<30)), r.ExpFloat64())
	}
	r.Restore(st)
	for i := 0; i < 200; i++ {
		got := []float64{r.Float64(), float64(r.Intn(1 << 30)), r.ExpFloat64()}
		for k, g := range got {
			if g != want[i*3+k] {
				t.Fatalf("draw %d/%d diverged after restore: %v != %v", i, k, g, want[i*3+k])
			}
		}
	}
}

// TestRNGSnapshotIntoFreshRNG: restoring into a different RNG instance
// (the machine-clone path) behaves identically to restoring in place.
func TestRNGSnapshotIntoFreshRNG(t *testing.T) {
	check := func(seed int64, burn uint16) bool {
		a := NewRNG(seed)
		for i := 0; i < int(burn); i++ {
			a.Intn(10)
		}
		st := a.Snapshot()
		b := NewRNG(0) // unrelated stream
		b.Restore(st)
		for i := 0; i < 32; i++ {
			if a.Int63() != b.Int63() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRNGSnapshotOfDerivedStream: Derive'd streams snapshot and restore
// like root streams.
func TestRNGSnapshotOfDerivedStream(t *testing.T) {
	r := Derive(7, "noise")
	r.Float64()
	r.Float64()
	st := r.Snapshot()
	want := r.Int63()
	r.Restore(st)
	if got := r.Int63(); got != want {
		t.Fatalf("derived stream diverged: %d != %d", got, want)
	}
	if st.Draws != 2 {
		t.Fatalf("draw count = %d want 2", st.Draws)
	}
}

// TestRNGDeltaRestoreMatchesScratch: the property behind the O(Δ)
// fast-forward. Restoring a stream that already sits at or before the
// target position replays only the delta; the result must be draw-for-draw
// identical to restoring the same state into a completely fresh RNG (which
// replays from the seed). Covers the delta path, the overshoot-rewind
// path (current position past the target), and the seed-mismatch path.
func TestRNGDeltaRestoreMatchesScratch(t *testing.T) {
	check := func(seed int64, burn, extra uint8) bool {
		orig := NewRNG(seed)
		for i := 0; i < int(burn); i++ {
			orig.Int63()
		}
		st := orig.Snapshot()

		// Delta path: same seed, position behind the target.
		delta := NewRNG(seed)
		for i := 0; i < int(burn)/2; i++ {
			delta.Int63()
		}
		// Overshoot path: same seed, position past the target.
		over := NewRNG(seed)
		for i := 0; i < int(burn)+int(extra)+1; i++ {
			over.Int63()
		}
		// Mismatch path: different seed entirely.
		other := NewRNG(seed + 1)
		other.Int63()

		scratch := NewRNG(0)
		for _, r := range []*RNG{delta, over, other, scratch} {
			r.Restore(st)
			if got := r.Snapshot(); got != st {
				t.Fatalf("restored position %+v want %+v", got, st)
			}
		}
		for i := 0; i < 64; i++ {
			want := scratch.Int63()
			if delta.Int63() != want || over.Int63() != want || other.Int63() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRNGReseedMatchesNew: in-place Reseed is NewRNG by another name.
func TestRNGReseedMatchesNew(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 57; i++ {
		r.Float64()
	}
	r.Reseed(99)
	fresh := NewRNG(99)
	for i := 0; i < 32; i++ {
		if r.Int63() != fresh.Int63() {
			t.Fatal("reseeded stream diverged from fresh RNG")
		}
	}
}

// TestDeriveSeedParts: the two-part derivation must be byte-equivalent to
// deriving with the concatenated label — call sites use it to avoid the
// concatenation alloc, not to change the seed space.
func TestDeriveSeedParts(t *testing.T) {
	check := func(root int64, a, b string) bool {
		return DeriveSeedParts(root, a, b) == DeriveSeed(root, a+b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestClockSnapshotRestore: Restore may rewind, unlike AdvanceTo.
func TestClockSnapshotRestore(t *testing.T) {
	c := NewClock()
	c.Advance(1000)
	st := c.Snapshot()
	c.Advance(500)
	c.Restore(st)
	if c.Now() != 1000 {
		t.Fatalf("restored clock at %d want 1000", c.Now())
	}
	// A restored clock must accept normal advancement again.
	c.AdvanceTo(1200)
	if c.Now() != 1200 {
		t.Fatalf("clock at %d want 1200", c.Now())
	}
}

// TestShuffleIndexMatchesShuffle: drawing ShuffleIndex(n-1) down to
// ShuffleIndex(1) and swapping reproduces Shuffle(n) exactly, with the
// same number of source draws. The huge sizes cover int31n's rejection
// loop (n near 2^31 rejects often) and the Int63n branch above 2^31; a
// panic stops Shuffle after its first steps so those runs stay cheap.
func TestShuffleIndexMatchesShuffle(t *testing.T) {
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		for _, n := range []int{1, 2, 3, 5, 64, 1000, 4097} {
			want := make([]int, n)
			lazy := make([]int, n)
			for i := range want {
				want[i], lazy[i] = i, i
			}
			ref, r := NewRNG(seed), NewRNG(seed)
			ref.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			for i := n - 1; i > 0; i-- {
				j := r.ShuffleIndex(i)
				lazy[i], lazy[j] = lazy[j], lazy[i]
			}
			for i := range want {
				if want[i] != lazy[i] {
					t.Fatalf("seed %d n %d: position %d = %d, Shuffle gave %d", seed, n, i, lazy[i], want[i])
				}
			}
			if ref.Snapshot() != r.Snapshot() {
				t.Fatalf("seed %d n %d: draws %v, Shuffle used %v", seed, n, r.Snapshot(), ref.Snapshot())
			}
		}
		for _, n := range []int{3 << 29, 1<<31 - 1, 1 << 31, 1<<33 + 5} {
			const steps = 64
			var want []int
			ref, r := NewRNG(seed), NewRNG(seed)
			func() {
				defer func() { _ = recover() }()
				ref.Shuffle(n, func(_, j int) {
					want = append(want, j)
					if len(want) == steps {
						panic("stop")
					}
				})
			}()
			for k, w := range want {
				if j := r.ShuffleIndex(n - 1 - k); j != w {
					t.Fatalf("seed %d n %d step %d: ShuffleIndex = %d, Shuffle drew %d", seed, n, k, j, w)
				}
			}
			if ref.Snapshot() != r.Snapshot() {
				t.Fatalf("seed %d n %d: draws %v, Shuffle used %v", seed, n, r.Snapshot(), ref.Snapshot())
			}
		}
	}
}
