package mem

import (
	"testing"

	"repro/internal/sim"
)

// The allocator sits on two hot paths: page churn during eviction-set
// construction (alloc/free), and machine cloning during warm starts
// (snapshot/restore). The first pins the frame-number bitmap that
// replaced the used map (constant-time mark/unmark without hashing); the
// second pins the lazy shuffle's state, whose snapshot and restore cost
// tracks the 4096 pages touched, not the 262,144 frames of memory.

func BenchmarkAllocFreeCycle(b *testing.B) {
	al := NewAllocator(1<<30, sim.Derive(1, "bench-mem"))
	// The first allocation runs a lazy shuffle step and first-touches the
	// used bitmap; the cycle under test is the steady state after it.
	a, _ := al.AllocPage()
	al.FreePage(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := al.AllocPage()
		if err != nil {
			b.Fatal(err)
		}
		al.FreePage(a)
	}
}

func BenchmarkAllocatorSnapshotRestore(b *testing.B) {
	al := NewAllocator(1<<30, sim.Derive(1, "bench-mem"))
	for i := 0; i < 4096; i++ {
		if _, err := al.AllocPage(); err != nil {
			b.Fatal(err)
		}
	}
	s := al.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Restore(s)
		s = al.Snapshot()
	}
}
