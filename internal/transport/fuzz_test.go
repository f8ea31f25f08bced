package transport

import "testing"

// refSeqWindow is the reference model for seqWindow: the full
// windowSpan-bit bitmap allocated up front and indexed modulo its
// length, as the receiver kept it before the bitmap was sized to the
// flow.
type refSeqWindow struct {
	bits []uint64
	max  uint64
}

func (w *refSeqWindow) observe(seq uint64) bool {
	if w.bits == nil {
		w.bits = make([]uint64, windowSpan/64)
	}
	if seq > w.max {
		for s := w.max + 1; s <= seq && s-w.max <= windowSpan; s++ {
			w.bits[(s/64)%uint64(len(w.bits))] &^= 1 << (s % 64)
		}
		w.max = seq
	} else if w.max-seq >= windowSpan {
		return true
	}
	idx := (seq / 64) % uint64(len(w.bits))
	mask := uint64(1) << (seq % 64)
	dup := w.bits[idx]&mask != 0
	w.bits[idx] |= mask
	return dup
}

// FuzzSeqWindow drives the receiver's duplicate-detection window with
// arbitrary sequence streams that step forward, step back (reordering
// and retransmissions, some older than the whole span) and jump past
// the span. Every answer must equal the full-bitmap reference's, fresh
// and duplicate alike, and a sequence seen before must never read as
// fresh. Each byte is one step: its top three bits pick the kind and
// its low five bits, n, the size.
func FuzzSeqWindow(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1})
	// Grow word by word, step back inside the window, refill.
	f.Add([]byte{7<<5 | 31, 7<<5 | 31, 1<<5 | 20, 1<<5 | 1, 7<<5 | 31, 3<<5 | 1, 2<<5 | 3})
	// Jump a span from a small bitmap, then visit sequences 512 apart:
	// only a bitmap grown to the full span keeps them apart.
	f.Add([]byte{5, 4 << 5, 3<<5 | 1, 2<<5 | 2, 1<<5 | 1, 3<<5 | 1})
	// Climb past the span, fall back to around one span behind the
	// newest sequence and beyond it, then climb again.
	f.Add([]byte{2<<5 | 31, 2<<5 | 31, 2<<5 | 31, 2<<5 | 31, 2<<5 | 31, 5<<5 | 16, 7<<5 | 3, 5<<5 | 15, 6<<5 | 20, 0 | 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		w, ref := newSeqWindow(), &refSeqWindow{}
		seen := map[uint64]bool{}
		seq := uint64(0)
		back := func(d uint64) {
			if d > seq {
				d = seq
			}
			seq -= d
		}
		for _, b := range raw {
			n := uint64(b & 31)
			switch b >> 5 {
			case 0:
				seq += n
			case 1:
				back(n)
			case 2:
				seq += n << 9 // many words at once
			case 3:
				back(n << 9)
			case 4:
				seq += windowSpan + n<<10 // every slot recycles
			case 5:
				back(windowSpan + n - 16) // around the span's edge
			case 6:
				back(n << 12) // up to ~2 spans
			default:
				seq += n << 4
			}
			got, want := w.observe(seq), ref.observe(seq)
			if got != want {
				t.Fatalf("seq %d: dup = %v, full bitmap says %v", seq, got, want)
			}
			if seen[seq] && !got {
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
