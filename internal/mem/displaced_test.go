package mem

import (
	"testing"

	"repro/internal/sim"
)

// TestDisplacedTableMatchesMap: random set/del/at traffic over a small
// key range (so probe runs collide and backward-shift deletion is
// exercised constantly) agrees with a Go map at every step, including
// through copies.
func TestDisplacedTableMatchesMap(t *testing.T) {
	rng := sim.NewRNG(9)
	var tab displacedTable
	ref := map[uint64]uint64{}
	for step := 0; step < 200_000; step++ {
		pos := uint64(rng.Intn(300))
		switch rng.Intn(4) {
		case 0, 1:
			f := uint64(rng.Intn(1 << 20))
			tab.set(pos, f)
			ref[pos] = f
		case 2:
			tab.del(pos)
			delete(ref, pos)
		default:
			var cp displacedTable
			cp.copyFrom(&tab)
			tab = cp
		}
		want, ok := ref[pos]
		if !ok {
			want = pos
		}
		if got := tab.at(pos); got != want || tab.n != len(ref) {
			t.Fatalf("step %d: at(%d) = %d (n=%d), map has %d (n=%d)", step, pos, got, tab.n, want, len(ref))
		}
	}
	for pos := uint64(0); pos < 300; pos++ {
		want, ok := ref[pos]
		if !ok {
			want = pos
		}
		if got := tab.at(pos); got != want {
			t.Fatalf("final at(%d) = %d, map has %d", pos, got, want)
		}
	}
}
