package metrics

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzHistogram feeds raw float64 bit patterns — infinities, NaNs,
// subnormals and values near MaxFloat64 included — into a histogram:
// it must never panic, quantiles must be monotone, and the median must
// never exceed the recorded maximum.
func FuzzHistogram(f *testing.F) {
	seed := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 2, 3))
	f.Add(seed(math.Inf(1), math.MaxFloat64, 1))
	f.Add(seed(math.SmallestNonzeroFloat64, math.NaN(), math.Inf(-1)))
	f.Add(seed(math.Nextafter(1<<30, 0), 1<<30, 7.5e300))
	f.Fuzz(func(t *testing.T, raw []byte) {
		h := NewHistogram(16)
		for i := 0; i+8 <= len(raw); i += 8 {
			h.Observe(math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("quantiles not monotone at %v", q)
			}
			prev = v
		}
		if h.Count() > 0 && h.Quantile(0.5) > h.Max() {
			t.Fatal("median above max")
		}
	})
}
