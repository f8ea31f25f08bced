package transport

import "testing"

// FuzzSeqWindow drives the receiver's duplicate-detection window with arbitrary
// sequence streams: it must never panic and must agree with an exact
// set within the window span.
func FuzzSeqWindow(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		w := newSeqWindow()
		seen := map[uint64]bool{}
		seq := uint64(0)
		for _, b := range raw {
			switch {
			case b < 128:
				seq += uint64(b)
			default:
				// Occasional large jumps exercise slot recycling.
				seq += uint64(b) << 9
			}
			dup := w.observe(seq)
			if seen[seq] && !dup {
				t.Fatalf("seq %d seen before but reported fresh", seq)
			}
			seen[seq] = true
		}
	})
}

// FuzzInflightWindow drives the connection's ordered id window (the
// in-flight sequences and the unfinished reads) with arbitrary
// issue/retire streams: every byte either issues the next id or retires
// a live one (picked by the byte's value, so the retired prefix, holes
// behind it and ring wrap-around all occur). After every byte the
// window must agree with an exact set: the same live count, the same
// membership, and a front-to-back walk that visits exactly the live ids
// in ascending order.
func FuzzInflightWindow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 200, 1, 0, 255, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var w window[sentInfo]
		live := map[uint64]bool{}
		next := uint64(0)
		walk := func() []uint64 {
			var ids []uint64
			for i := 0; i < w.span(); i++ {
				if _, ok := w.at(i); ok {
					ids = append(ids, w.base+uint64(i))
				}
			}
			return ids
		}
		for _, b := range raw {
			if b < 96 || len(live) == 0 {
				w.push(next, sentInfo{payload: int(b)})
				live[next] = true
				next++
			} else {
				id := walk()[int(b)%len(live)]
				delete(live, id)
				w.retire(id)
			}
			if w.len() != len(live) {
				t.Fatalf("window holds %d live, set %d", w.len(), len(live))
			}
			ids := walk()
			if len(ids) != len(live) {
				t.Fatalf("walk visits %d ids, set holds %d", len(ids), len(live))
			}
			for i, id := range ids {
				if !live[id] || (i > 0 && ids[i-1] >= id) || w.get(id) == nil {
					t.Fatalf("walk %v disagrees with set %v", ids, live)
				}
			}
			if w.span() > 0 {
				if _, ok := w.at(0); !ok {
					t.Fatal("retired prefix not trimmed")
				}
			}
			if w.get(next) != nil || (next > 0 && !live[next-1] && w.get(next-1) != nil) {
				t.Fatal("get returned an id that is not live")
			}
		}
	})
}
