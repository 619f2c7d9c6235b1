package cache

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/sim"
)

// FuzzSnapshotGobDecode: no byte string panics the snapshot decoder, and
// a snapshot it accepts for a cache's geometry restores into that cache
// and survives traffic. Seeds are real encoded snapshots of both tiny
// geometries, fresh and after traffic.
func FuzzSnapshotGobDecode(f *testing.F) {
	for _, partition := range []bool{false, true} {
		clock := sim.NewClock()
		c := New(tinyConfig(partition), clock)
		f.Add(encodeSnapshot(f, c.Snapshot()))
		stream := &opStream{data: []byte{0, 1, 2, 3, 1, 64, 2, 65, 0, 200, 4, 1, 3, 2, 2, 7}}
		for kind, addr, ok := stream.next(); ok; kind, addr, ok = stream.next() {
			applyOp(c, clock, kind, addr)
		}
		f.Add(encodeSnapshot(f, c.Snapshot()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
			return
		}
		for _, partition := range []bool{false, true} {
			cfg := tinyConfig(partition)
			if s.geometry != geometryKey(cfg) {
				continue
			}
			clock := sim.NewClock()
			c := New(cfg, clock)
			c.Restore(&s)
			stream := &opStream{data: data}
			for kind, addr, ok := stream.next(); ok; kind, addr, ok = stream.next() {
				applyOp(c, clock, kind, addr)
			}
		}
	})
}

func encodeSnapshot(f *testing.F, s *Snapshot) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotGobDecodeRejectsMismatchedFields: parallel slices of
// different lengths once indexed out of range inside gob, which re-panics,
// so a corrupt disk artifact crashed the store instead of missing.
func TestSnapshotGobDecodeRejectsMismatchedFields(t *testing.T) {
	enc, err := New(tinyConfig(true), sim.NewClock()).Snapshot().GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var w snapshotGob
	if err := gob.NewDecoder(bytes.NewReader(enc)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	corrupt := []func(w *snapshotGob){
		func(w *snapshotGob) { w.Valid = w.Valid[:3] },
		func(w *snapshotGob) { w.Stamps = nil },
		func(w *snapshotGob) { w.HasIO = w.HasIO[1:] },
		func(w *snapshotGob) { w.Quota[0] = 99 },
		func(w *snapshotGob) { w.Geometry = "garbage" },
		func(w *snapshotGob) { w.Tags, w.Valid, w.Dirty, w.IO, w.Stamps = nil, nil, nil, nil, nil },
	}
	for i, mutate := range corrupt {
		cp := w
		cp.Valid = append([]bool(nil), w.Valid...)
		cp.Quota = append([]int(nil), w.Quota...)
		mutate(&cp)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		if err := s.GobDecode(buf.Bytes()); err == nil {
			t.Errorf("corruption %d decoded without error", i)
		}
	}
}
