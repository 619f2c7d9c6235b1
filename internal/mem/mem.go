// Package mem models the machine's physical address space and the two views
// the Packet Chasing attack cares about: the kernel page allocator that
// hands the NIC driver its rx-ring buffer pages, and the virtual mappings a
// user-space spy process obtains for building eviction sets.
//
// Only addresses are modeled, never data contents — the attack observes
// cache-set occupancy, not payload bytes. Physical frame numbers are handed
// out in a randomized order, which is what makes the buffer-to-cache-set
// mapping non-uniform (paper Figs 5 and 6): each 4 KB page lands on one of
// 256 page-aligned set groups essentially uniformly at random, so the
// number of ring buffers per group follows a birthday-style distribution.
package mem

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// PageSize is the system page size. The IGB driver packs two 2 KB rx
// buffers into each 4 KB page (paper §III-A).
const PageSize = 4096

// LineSize is the cache line size; buffer sizes and packet sizes are
// expressed in 64-byte blocks throughout the paper.
const LineSize = 64

// Addr is a physical byte address.
type Addr uint64

// PageAligned reports whether a sits on a page boundary.
func (a Addr) PageAligned() bool { return a%PageSize == 0 }

// Line returns the address of the cache line containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// Page returns the address of the page containing a.
func (a Addr) Page() Addr { return a &^ (PageSize - 1) }

// Allocator is a physical page allocator. Frames are issued in a seeded
// pseudo-random order to model the state of a long-running kernel buddy
// allocator; sequential physical allocation would (unrealistically) give
// the driver a perfectly uniform buffer-to-set mapping.
//
// That order is a Fisher–Yates shuffle of every frame, consumed from
// the tail, but the shuffle runs lazily: rand.Shuffle fixes positions from
// the tail down and AllocPage pops from the tail, so drawing each swap at
// the moment its position is popped hands out exactly the frames, in
// exactly the order, an eager shuffle at construction would. A 1 GiB
// machine whose attack touches a few thousand pages therefore builds,
// snapshots and restores in time and space proportional to those pages,
// not to its 262,144 frames.
//
// The conceptual free list is the not-yet-shuffled prefix — positions
// [0, unshuffled), holding frame p at position p unless displaced says
// otherwise — followed by stack, the frames already fixed or freed.
type Allocator struct {
	// rng is the private page-alloc stream; only shuffle steps draw it.
	rng        *sim.RNG
	unshuffled uint64
	// displaced holds the prefix positions a shuffle swap moved another
	// frame into; positions absent from it still hold their own frame.
	displaced displacedTable
	stack     []uint64 // fixed or freed frames, consumed from the tail
	// used is a frame-number bitmap: alloc/free without hashing; a
	// snapshot lists its set bits.
	used     []uint64
	numPages uint64
}

// NewAllocator creates an allocator over totalBytes of physical memory,
// issuing frames in the order rng shuffles them. The allocator keeps rng
// and is its only user.
func NewAllocator(totalBytes uint64, rng *sim.RNG) *Allocator {
	n := totalBytes / PageSize
	if n == 0 {
		panic("mem: allocator needs at least one page")
	}
	return &Allocator{rng: rng, unshuffled: n, used: make([]uint64, (n+63)/64), numPages: n}
}

// TotalPages returns the number of physical pages.
func (al *Allocator) TotalPages() uint64 { return al.numPages }

// FreePages returns the number of currently free pages.
func (al *Allocator) FreePages() int { return int(al.unshuffled) + len(al.stack) }

// AllocatorState is a deep copy of an allocator's bookkeeping, taken by
// Snapshot and reapplied by Restore. The free order is part of the state —
// it determines every future allocation — and is captured as the shuffle
// stream's position, the displaced prefix entries and the stack, so the
// state's size tracks the pages touched rather than physical memory.
type AllocatorState struct {
	rng        sim.RNGState
	unshuffled uint64
	displaced  displacedTable
	stack      []uint64
	used       []uint64 // used frames, ascending
	numPages   uint64
}

// Snapshot captures the allocator's state. The returned value is immutable
// and safe to restore into any allocator built over the same memory size.
func (al *Allocator) Snapshot() *AllocatorState {
	st := &AllocatorState{}
	al.SnapshotInto(st)
	return st
}

// SnapshotInto captures the allocator's state into a caller-owned scratch
// snapshot, reusing its backing slices. It exists for the offline/build
// path and benchmarks that snapshot repeatedly; a snapshot filed in an
// artifact must be a fresh Snapshot(), since artifacts rely on snapshot
// immutability.
func (al *Allocator) SnapshotInto(st *AllocatorState) {
	st.rng = sim.RNGState{}
	if al.unshuffled > 0 {
		// Once the prefix is gone the stream is never drawn again, so a
		// drained allocator's state does not depend on it.
		st.rng = al.rng.Snapshot()
	}
	st.unshuffled = al.unshuffled
	st.displaced.copyFrom(&al.displaced)
	st.stack = append(st.stack[:0], al.stack...)
	st.used = slices.Grow(st.used[:0], int(al.numPages)-al.FreePages())
	for i, word := range al.used {
		for ; word != 0; word &= word - 1 {
			st.used = append(st.used, uint64(i)*64+uint64(bits.TrailingZeros64(word)))
		}
	}
	st.numPages = al.numPages
}

// allocatorStateGob mirrors AllocatorState with exported fields for the
// disk-backed artifact store. Displaced entries and used frames are listed
// in ascending order for a canonical encoding; the stack keeps its order
// (it determines every future allocation).
type allocatorStateGob struct {
	RNG                          sim.RNGState
	Unshuffled                   uint64
	DisplacedPos, DisplacedFrame []uint64
	Stack                        []uint64
	Used                         []uint64
	NumPages                     uint64
}

// GobEncode serializes the allocator state (disk-backed warm starts).
func (st *AllocatorState) GobEncode() ([]byte, error) {
	w := allocatorStateGob{
		RNG:        st.rng,
		Unshuffled: st.unshuffled,
		Stack:      st.stack,
		Used:       st.used,
		NumPages:   st.numPages,
	}
	var disp []slot
	for _, sl := range st.displaced.slots {
		if sl.key != 0 {
			disp = append(disp, sl)
		}
	}
	slices.SortFunc(disp, func(a, b slot) int { return cmp.Compare(a.key, b.key) })
	for _, sl := range disp {
		w.DisplacedPos = append(w.DisplacedPos, sl.key-1)
		w.DisplacedFrame = append(w.DisplacedFrame, sl.frame)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds allocator state from its serialized form. The input
// comes off disk, so it is validated before anything is indexed: the
// decoded state must partition the frames exactly — every frame free
// (in the prefix or on the stack) or used, exactly once — or the decode
// fails and the artifact store treats the entry as a miss.
func (st *AllocatorState) GobDecode(b []byte) error {
	var w allocatorStateGob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	n := w.NumPages
	// Each shuffle step draws once, or again on int31n's rare rejection,
	// so a stream position far past twice the steps taken is corruption —
	// and restoring it would replay that many draws.
	if n == 0 || w.Unshuffled > n || len(w.DisplacedPos) != len(w.DisplacedFrame) ||
		w.Unshuffled+uint64(len(w.Stack))+uint64(len(w.Used)) != n || w.RNG.Draws > 2*(n-w.Unshuffled)+64 {
		return fmt.Errorf("mem: corrupt allocator state (%d pages, %d unshuffled, %d/%d displaced, %d stacked, %d used, %d draws)",
			n, w.Unshuffled, len(w.DisplacedPos), len(w.DisplacedFrame), len(w.Stack), len(w.Used), w.RNG.Draws)
	}
	for i, pos := range w.DisplacedPos {
		if pos >= w.Unshuffled || (i > 0 && pos <= w.DisplacedPos[i-1]) {
			return fmt.Errorf("mem: corrupt allocator state: displaced position %d", pos)
		}
	}
	// With the counts summing to n, the frames partition [0, n) iff the
	// listed ones are in range and distinct, and each one below
	// Unshuffled sits at a displaced position (so it is not also the
	// prefix's implicit entry at its own position).
	listed := slices.Concat(w.DisplacedFrame, w.Stack, w.Used)
	slices.Sort(listed)
	for i, f := range listed {
		_, displaced := slices.BinarySearch(w.DisplacedPos, f)
		if f >= n || (i > 0 && f == listed[i-1]) || (f < w.Unshuffled && !displaced) {
			return fmt.Errorf("mem: corrupt allocator state: frame %d out of range or listed twice", f)
		}
	}
	st.rng = w.RNG
	st.unshuffled = w.Unshuffled
	st.displaced = displacedTable{}
	for i, pos := range w.DisplacedPos {
		st.displaced.set(pos, w.DisplacedFrame[i])
	}
	st.stack = w.Stack
	st.used = w.Used
	st.numPages = n
	return nil
}

// Restore overwrites the allocator's state from a snapshot. It panics on a
// memory-size mismatch (snapshots never move between machine shapes). The
// copies reuse the allocator's existing backing arrays: once they have
// grown to size, repeated restores — the rig-pool lease path runs one
// per warm trial — allocate nothing.
func (al *Allocator) Restore(st *AllocatorState) {
	if st.numPages != al.numPages {
		panic(fmt.Sprintf("mem: restoring %d-page snapshot into %d-page allocator", st.numPages, al.numPages))
	}
	if st.unshuffled > 0 {
		al.rng.Restore(st.rng)
	}
	al.unshuffled = st.unshuffled
	al.displaced.copyFrom(&st.displaced)
	al.stack = append(al.stack[:0], st.stack...)
	clear(al.used)
	for _, pfn := range st.used {
		al.used[pfn/64] |= 1 << (pfn % 64)
	}
}

// AllocPage returns the base address of a newly allocated physical page:
// the top of the stack, or else the next shuffled frame.
func (al *Allocator) AllocPage() (Addr, error) {
	if n := len(al.stack); n > 0 {
		pfn := al.stack[n-1]
		al.stack = al.stack[:n-1]
		al.used[pfn/64] |= 1 << (pfn % 64)
		return Addr(pfn * PageSize), nil
	}
	return al.allocShuffled()
}

// allocShuffled runs one Fisher–Yates step — swap the last prefix position
// with the drawn partner — and allocates the frame it fixes.
func (al *Allocator) allocShuffled() (Addr, error) {
	if al.unshuffled == 0 {
		return 0, al.errExhausted()
	}
	last := al.unshuffled - 1
	al.unshuffled = last
	pfn := al.displaced.at(last)
	al.displaced.del(last)
	if last > 0 {
		if j := uint64(al.rng.ShuffleIndex(int(last))); j != last {
			moved := pfn
			pfn = al.displaced.at(j)
			al.displaced.set(j, moved)
		}
	}
	al.used[pfn/64] |= 1 << (pfn % 64)
	return Addr(pfn * PageSize), nil
}

func (al *Allocator) errExhausted() error {
	return fmt.Errorf("mem: out of physical pages (%d total)", al.numPages)
}

// materialize finishes the shuffle, leaving the whole free list on the
// stack in the order the lazy steps would have popped it.
func (al *Allocator) materialize() {
	k := al.unshuffled
	if k == 0 {
		return
	}
	m := len(al.stack)
	al.stack = slices.Grow(al.stack, int(k))[:int(k)+m]
	copy(al.stack[k:], al.stack[:m])
	prefix := al.stack[:k]
	for i := range prefix {
		prefix[i] = uint64(i)
	}
	for _, sl := range al.displaced.slots {
		if sl.key != 0 {
			prefix[sl.key-1] = sl.frame
		}
	}
	for i := len(prefix) - 1; i > 0; i-- {
		j := al.rng.ShuffleIndex(i)
		prefix[i], prefix[j] = prefix[j], prefix[i]
	}
	al.displaced.reset()
	al.unshuffled = 0
}

// AllocPageRandom returns a page drawn uniformly from the free list. The
// plain AllocPage is effectively LIFO once pages cycle (like a real buddy
// allocator preferring cache-hot pages), which would quietly defeat the
// §VI-b ring-randomization defense: a "fresh" buffer would land on the
// page just vacated. Randomized placement is the point of that defense,
// so it allocates through this method. The draw indexes the full free
// list, so the first call materializes it.
func (al *Allocator) AllocPageRandom(rng *sim.RNG) (Addr, error) {
	al.materialize()
	if len(al.stack) == 0 {
		return 0, al.errExhausted()
	}
	i := rng.Intn(len(al.stack))
	pfn := al.stack[i]
	al.stack[i] = al.stack[len(al.stack)-1]
	al.stack = al.stack[:len(al.stack)-1]
	al.used[pfn/64] |= 1 << (pfn % 64)
	return Addr(pfn * PageSize), nil
}

// AllocPages allocates n pages, returning their base addresses.
func (al *Allocator) AllocPages(n int) ([]Addr, error) {
	out := make([]Addr, 0, n)
	for i := 0; i < n; i++ {
		a, err := al.AllocPage()
		if err != nil {
			// Roll back partial allocation.
			for _, p := range out {
				al.FreePage(p)
			}
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// FreePage returns a page to the allocator. Freeing an unallocated or
// unaligned address panics: both indicate a driver-model bug.
func (al *Allocator) FreePage(a Addr) {
	if !a.PageAligned() {
		panic(fmt.Sprintf("mem: freeing unaligned address %#x", uint64(a)))
	}
	pfn := uint64(a) / PageSize
	w, bit := pfn/64, uint64(1)<<(pfn%64)
	// Bits past numPages are never set, so this also rejects frames
	// beyond the end of memory.
	if w >= uint64(len(al.used)) || al.used[w]&bit == 0 {
		panic(fmt.Sprintf("mem: double free of frame %d", pfn))
	}
	al.used[w] &^= bit
	al.stack = append(al.stack, pfn)
}

// Region is a contiguous virtual mapping owned by the spy process. The spy
// addresses it by offset; the physical frames backing it are known to the
// simulator but are deliberately not exposed through the methods the attack
// code uses — the attack must discover conflicts through timing, exactly as
// on real hardware where user space cannot read /proc/self/pagemap without
// privileges.
type Region struct {
	pages []Addr
}

// NewRegion maps n pages of fresh physical memory.
func NewRegion(al *Allocator, n int) (*Region, error) {
	pages, err := al.AllocPages(n)
	if err != nil {
		return nil, err
	}
	return &Region{pages: pages}, nil
}

// RegionFromPages rebuilds a region over frames that are already allocated
// — the warm-start path, where a restored allocator snapshot records the
// spy's pages as used and the region must be re-attached rather than
// re-allocated. The page list is copied.
func RegionFromPages(pages []Addr) *Region {
	return &Region{pages: append([]Addr(nil), pages...)}
}

// SetPages re-points an existing region at a new page list (copied into
// the region's reused backing array) — RegionFromPages for the rig-pool
// reuse path, where the spy's region object survives across leases and a
// fresh allocation per lease would defeat the pool.
func (r *Region) SetPages(pages []Addr) {
	r.pages = append(r.pages[:0], pages...)
}

// PageAddrs returns the physical base addresses of the region's pages, in
// mapping order (snapshot support; attack code never reads this).
func (r *Region) PageAddrs() []Addr {
	return append([]Addr(nil), r.pages...)
}

// Size returns the region size in bytes.
func (r *Region) Size() uint64 { return uint64(len(r.pages)) * PageSize }

// Pages returns the number of mapped pages.
func (r *Region) Pages() int { return len(r.pages) }

// Translate converts a virtual offset within the region to the backing
// physical address. This is the MMU's job; the spy never calls it directly,
// it is used by the cache model when the spy touches memory.
func (r *Region) Translate(off uint64) Addr {
	pageIdx := off / PageSize
	if pageIdx >= uint64(len(r.pages)) {
		panic(fmt.Sprintf("mem: offset %#x beyond region of %d pages", off, len(r.pages)))
	}
	return r.pages[pageIdx] + Addr(off%PageSize)
}

// Release returns all backing frames to the allocator.
func (r *Region) Release(al *Allocator) {
	for _, p := range r.pages {
		al.FreePage(p)
	}
	r.pages = nil
}
