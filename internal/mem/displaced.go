package mem

// displacedTable maps not-yet-shuffled prefix positions to the frame a
// shuffle swap moved there. It is an open-addressing hash table (linear
// probing, backward-shift deletion, load at most 1/2) over one flat slot
// slice rather than a Go map, so that a snapshot or restore copies it as a
// single slice — no per-entry reinsertion, and no allocation once the
// destination has grown. The rig-pool lease restores it every warm trial.
type displacedTable struct {
	slots []slot // power-of-two length, or empty
	n     int    // occupied slots
}

// slot is one table entry; key is the position plus one, so the zero
// value marks an empty slot.
type slot struct{ key, frame uint64 }

func (t *displacedTable) home(pos uint64) int {
	return int((pos*0x9e3779b97f4a7c15)>>32) & (len(t.slots) - 1)
}

// find returns the index of pos's slot, or of the empty slot ending its
// probe sequence. The table must be non-empty.
func (t *displacedTable) find(pos uint64) int {
	mask := len(t.slots) - 1
	i := t.home(pos)
	for t.slots[i].key != 0 && t.slots[i].key != pos+1 {
		i = (i + 1) & mask
	}
	return i
}

// at returns the frame at prefix position pos: its displaced frame, or pos
// itself.
func (t *displacedTable) at(pos uint64) uint64 {
	if t.n == 0 {
		return pos
	}
	if s := t.slots[t.find(pos)]; s.key != 0 {
		return s.frame
	}
	return pos
}

func (t *displacedTable) set(pos, frame uint64) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]slot, max(16, 2*len(old)))
		for _, s := range old {
			if s.key != 0 {
				t.slots[t.find(s.key-1)] = s
			}
		}
	}
	i := t.find(pos)
	if t.slots[i].key == 0 {
		t.slots[i].key = pos + 1
		t.n++
	}
	t.slots[i].frame = frame
}

func (t *displacedTable) del(pos uint64) {
	if t.n == 0 {
		return
	}
	i := t.find(pos)
	if t.slots[i].key == 0 {
		return
	}
	// Backward shift: pull each later entry of the probe run into the
	// hole unless its home lies cyclically after the hole.
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key-1))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
}

func (t *displacedTable) reset() {
	clear(t.slots)
	t.n = 0
}

// copyFrom makes t an exact copy of src, reusing t's slot slice.
func (t *displacedTable) copyFrom(src *displacedTable) {
	t.slots = append(t.slots[:0], src.slots...)
	t.n = src.n
}
