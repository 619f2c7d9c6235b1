package mem

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// eagerAllocator is the allocator as it was before the shuffle went lazy:
// every frame shuffled up front into an explicit free list. It is the
// reference the lazy Allocator must match frame for frame.
type eagerAllocator struct {
	free []uint64
	used []bool
}

func newEager(totalBytes uint64, rng *sim.RNG) *eagerAllocator {
	n := totalBytes / PageSize
	free := make([]uint64, n)
	for i := range free {
		free[i] = uint64(i)
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	return &eagerAllocator{free: free, used: make([]bool, n)}
}

func (e *eagerAllocator) allocPage() (Addr, error) {
	if len(e.free) == 0 {
		return 0, fmt.Errorf("out of pages")
	}
	pfn := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.used[pfn] = true
	return Addr(pfn * PageSize), nil
}

func (e *eagerAllocator) allocPageRandom(rng *sim.RNG) (Addr, error) {
	if len(e.free) == 0 {
		return 0, fmt.Errorf("out of pages")
	}
	i := rng.Intn(len(e.free))
	pfn := e.free[i]
	e.free[i] = e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.used[pfn] = true
	return Addr(pfn * PageSize), nil
}

func (e *eagerAllocator) allocPages(n int) ([]Addr, error) {
	var out []Addr
	for i := 0; i < n; i++ {
		a, err := e.allocPage()
		if err != nil {
			for _, p := range out {
				e.freePage(p)
			}
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func (e *eagerAllocator) freePage(a Addr) {
	pfn := uint64(a) / PageSize
	e.used[pfn] = false
	e.free = append(e.free, pfn)
}

func (e *eagerAllocator) clone() *eagerAllocator {
	return &eagerAllocator{free: append([]uint64(nil), e.free...), used: append([]bool(nil), e.used...)}
}

// savedPoint is one snapshot of both allocators plus the pages the test
// held at that moment.
type savedPoint struct {
	lazy  *AllocatorState
	eager *eagerAllocator
	held  []Addr
}

func gobRoundTripState(t *testing.T, st *AllocatorState) *AllocatorState {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	out := &AllocatorState{}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLazyAllocatorMatchesEager drives the lazy allocator and the eager
// reference through the same random interleaving of AllocPage,
// AllocPages (including rollback on exhaustion), FreePage,
// AllocPageRandom, Snapshot/Restore, gob round-trips and clones into a
// placeholder-stream allocator, and requires identical frames, errors
// and free counts at every step, then identical drain order.
func TestLazyAllocatorMatchesEager(t *testing.T) {
	sizes := []uint64{1 * PageSize, 2 * PageSize, 7 * PageSize, 1001 * PageSize, 1 << 30}
	for _, seed := range []int64{1, 2, 42, -9} {
		for _, size := range sizes {
			t.Run(fmt.Sprintf("seed=%d/pages=%d", seed, size/PageSize), func(t *testing.T) {
				checkLazyMatchesEager(t, seed, size)
			})
		}
	}
}

func checkLazyMatchesEager(t *testing.T, seed int64, size uint64) {
	lazy := NewAllocator(size, sim.Derive(seed, "page-alloc"))
	eager := newEager(size, sim.Derive(seed, "page-alloc"))
	lazyPick, eagerPick := sim.Derive(seed, "pick"), sim.Derive(seed, "pick")
	drive := sim.Derive(seed, "drive")
	var held []Addr
	var saved []savedPoint

	same := func(step int, op string, a, b Addr, errA, errB error) {
		t.Helper()
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("step %d %s: lazy (%#x, %v), eager (%#x, %v)", step, op, uint64(a), errA, uint64(b), errB)
		}
		if lazy.FreePages() != len(eager.free) {
			t.Fatalf("step %d %s: lazy has %d free, eager %d", step, op, lazy.FreePages(), len(eager.free))
		}
	}
	for step := 0; step < 600; step++ {
		switch op := drive.Intn(100); {
		case op < 40:
			a, errA := lazy.AllocPage()
			b, errB := eager.allocPage()
			same(step, "AllocPage", a, b, errA, errB)
			if errA == nil {
				held = append(held, a)
			}
		case op < 50:
			// Sometimes more than is free, to exercise the rollback.
			k := drive.Intn(min(2*lazy.FreePages(), 40) + 3)
			as, errA := lazy.AllocPages(k)
			bs, errB := eager.allocPages(k)
			same(step, "AllocPages", 0, 0, errA, errB)
			for i := range as {
				if as[i] != bs[i] {
					t.Fatalf("step %d AllocPages[%d]: lazy %#x, eager %#x", step, i, uint64(as[i]), uint64(bs[i]))
				}
			}
			held = append(held, as...)
		case op < 75:
			if len(held) == 0 {
				continue
			}
			i := drive.Intn(len(held))
			p := held[i]
			held = append(held[:i], held[i+1:]...)
			lazy.FreePage(p)
			eager.freePage(p)
			same(step, "FreePage", 0, 0, nil, nil)
		case op < 78:
			if size >= 1<<20 && step < 500 {
				// Materializing a large machine's free list makes every
				// later snapshot O(frames); keep most of its run lazy.
				continue
			}
			a, errA := lazy.AllocPageRandom(lazyPick)
			b, errB := eager.allocPageRandom(eagerPick)
			same(step, "AllocPageRandom", a, b, errA, errB)
			if errA == nil {
				held = append(held, a)
			}
		case op < 88:
			sp := savedPoint{lazy.Snapshot(), eager.clone(), append([]Addr(nil), held...)}
			if len(saved) < 4 {
				saved = append(saved, sp)
			} else {
				saved[drive.Intn(len(saved))] = sp
			}
		case op < 94:
			if len(saved) == 0 {
				continue
			}
			sp := saved[drive.Intn(len(saved))]
			lazy.Restore(sp.lazy)
			eager = sp.eager.clone()
			held = append(held[:0], sp.held...)
			same(step, "Restore", 0, 0, nil, nil)
		default:
			// Clone through the disk format into a fresh placeholder-stream
			// allocator, the way a machine shell is restored.
			st := gobRoundTripState(t, lazy.Snapshot())
			lazy = NewAllocator(size, sim.NewRNG(0))
			lazy.Restore(st)
			same(step, "gob clone", 0, 0, nil, nil)
		}
	}
	for i := 0; ; i++ {
		a, errA := lazy.AllocPage()
		b, errB := eager.allocPage()
		same(i, "drain", a, b, errA, errB)
		if errA != nil {
			break
		}
	}
}

// TestSnapshotCostTracksPagesTouched: a fresh 1 GiB allocator's state
// holds nothing per frame, and after a few allocations it holds a few
// entries — the property that makes building and cloning a machine cheap.
func TestSnapshotCostTracksPagesTouched(t *testing.T) {
	al := NewAllocator(1<<30, sim.NewRNG(5))
	st := al.Snapshot()
	if len(st.stack)+st.displaced.n+len(st.used) != 0 {
		t.Fatalf("fresh state holds %d stack, %d displaced, %d used entries", len(st.stack), st.displaced.n, len(st.used))
	}
	for i := 0; i < 100; i++ {
		if _, err := al.AllocPage(); err != nil {
			t.Fatal(err)
		}
	}
	st = al.Snapshot()
	if len(st.used) != 100 || len(st.stack) != 0 || st.displaced.n > 100 {
		t.Fatalf("after 100 allocations: %d used, %d stack, %d displaced", len(st.used), len(st.stack), st.displaced.n)
	}
}

// FuzzAllocatorStateDecode: no byte string panics the decoder, and a
// state the decoder accepts is a valid allocator — restoring it and
// draining every free page hands out each unused frame exactly once.
func FuzzAllocatorStateDecode(f *testing.F) {
	for _, seed := range []int64{1, 3} {
		al := NewAllocator(64*PageSize, sim.NewRNG(seed))
		f.Add(encodeState(f, al.Snapshot()))
		pages, _ := al.AllocPages(20)
		for _, p := range pages[:5] {
			al.FreePage(p)
		}
		f.Add(encodeState(f, al.Snapshot()))
		if _, err := al.AllocPageRandom(sim.NewRNG(seed)); err != nil {
			f.Fatal(err)
		}
		f.Add(encodeState(f, al.Snapshot()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st AllocatorState
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
			return
		}
		if st.numPages > 1<<16 {
			return // valid but too large to drain cheaply
		}
		al := NewAllocator(st.numPages*PageSize, sim.NewRNG(0))
		al.Restore(&st)
		seen := make(map[Addr]bool)
		for _, pfn := range st.used {
			seen[Addr(pfn*PageSize)] = true
		}
		for {
			a, err := al.AllocPage()
			if err != nil {
				break
			}
			if seen[a] {
				t.Fatalf("frame %#x handed out twice", uint64(a))
			}
			seen[a] = true
		}
		if uint64(len(seen)) != st.numPages {
			t.Fatalf("drain covered %d of %d frames", len(seen), st.numPages)
		}
	})
}

func encodeState(f *testing.F, st *AllocatorState) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// TestAllocatorStateDecodeRejectsCorruption: a used frame beyond the
// memory size once indexed the bitmap out of range inside gob (which
// re-panics), crashing the artifact store instead of missing.
func TestAllocatorStateDecodeRejectsCorruption(t *testing.T) {
	bad := []allocatorStateGob{
		{NumPages: 10, Unshuffled: 9, Used: []uint64{100}},
		{NumPages: 10, Unshuffled: 9, Used: []uint64{3}},                                       // also in the prefix
		{NumPages: 10, Unshuffled: 8, Stack: []uint64{9}, Used: []uint64{9}},                   // listed twice
		{NumPages: 10, Unshuffled: 10, DisplacedPos: []uint64{2}, DisplacedFrame: []uint64{3}}, // frame 3 twice
		{NumPages: 10, Unshuffled: 10, DisplacedPos: []uint64{2, 1}, DisplacedFrame: []uint64{1, 2}},
		{NumPages: 10, Unshuffled: 4},
		{NumPages: 10, Unshuffled: 10, RNG: sim.RNGState{Seed: 1, Draws: 1 << 60}}, // would replay for ever
		{NumPages: 0},
	}
	for i, w := range bad {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		var st AllocatorState
		if err := st.GobDecode(buf.Bytes()); err == nil {
			t.Errorf("case %d: corrupt state %+v decoded without error", i, w)
		}
	}
}
