package metrics

import (
	"math"
	"testing"
)

// log2BucketIndex is the Log2/Exp2 bucketing the histogram used before
// it switched to Frexp. It is kept here as the reference the Frexp form
// is pinned against.
func log2BucketIndex(subBuckets int, v float64) int {
	if v < 1 {
		return 0
	}
	exp := int(math.Floor(math.Log2(v)))
	base := math.Exp2(float64(exp))
	frac := (v - base) / base
	sub := int(frac * float64(subBuckets))
	if sub >= subBuckets {
		sub = subBuckets - 1
	}
	return 1 + exp*subBuckets + sub
}

// inBucket reports whether v lies in [bucketLow(idx), bucketLow(idx+1)).
func inBucket(h *Histogram, idx int, v float64) bool {
	return h.bucketLow(idx) <= v && v < h.bucketLow(idx+1)
}

// TestBucketIndexMatchesLog2Form pins the Frexp bucketing to the old
// Log2/Exp2 form. Every integer in [1, 2^24] lands in the same bucket,
// as does every power of two and the value one ULP above it. The one
// input class that moves is a value one ULP below a power of two: Log2
// rounds it up to the next octave, so the old form filed it in bucket 0
// of that octave, above its own value. The Frexp form files it in the
// top bucket of the octave below, where it belongs.
func TestBucketIndexMatchesLog2Form(t *testing.T) {
	subs := []int{2, 16, 64}
	hs := make([]*Histogram, len(subs))
	for i, sb := range subs {
		hs[i] = NewHistogram(sb)
	}
	for n := 1; n <= 1<<24; n++ {
		v := float64(n)
		for i, h := range hs {
			if got, want := h.bucketIndex(v), log2BucketIndex(subs[i], v); got != want {
				t.Fatalf("subBuckets=%d v=%d: Frexp bucket %d, Log2 bucket %d", subs[i], n, got, want)
			}
		}
	}
	moved := 0
	for k := 0; k <= 1023; k++ {
		pow := math.Ldexp(1, k)
		below := math.Nextafter(pow, 0)
		for i, h := range hs {
			for _, v := range []float64{pow, math.Nextafter(pow, math.Inf(1))} {
				if got, want := h.bucketIndex(v), log2BucketIndex(subs[i], v); got != want {
					t.Errorf("subBuckets=%d v=%g: Frexp bucket %d, Log2 bucket %d", subs[i], v, got, want)
				}
			}
			if below < 1 {
				continue
			}
			got, old := h.bucketIndex(below), log2BucketIndex(subs[i], below)
			if !inBucket(h, got, below) {
				t.Errorf("subBuckets=%d v=%g: Frexp bucket %d does not contain it", subs[i], below, got)
			}
			if got != old {
				moved++
				if inBucket(h, old, below) {
					t.Errorf("subBuckets=%d v=%g: buckets differ (%d vs %d) but the old one was right", subs[i], below, got, old)
				}
				if below == math.Trunc(below) && below <= 1<<24 {
					t.Errorf("subBuckets=%d: integer %g moved bucket", subs[i], below)
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no value one ULP below a power of two moved; the documented misfiling no longer exists in the reference")
	}
}

// TestHistogramObserveInfAndMaxFloat covers the two inputs that used to
// panic with a negative bucket index: MaxFloat64, whose Log2 rounds up
// to 1024 so that Exp2 overflows, and +Inf. Both file into the top
// finite bucket, while Max and Mean keep reporting +Inf.
func TestHistogramObserveInfAndMaxFloat(t *testing.T) {
	h := NewHistogram(16)
	h.Observe(math.MaxFloat64)
	h.Observe(math.Inf(1))
	h.Observe(3)
	if h.Count() != 3 {
		t.Fatalf("count %d, want 3", h.Count())
	}
	if !math.IsInf(h.Max(), 1) || !math.IsInf(h.Mean(), 1) {
		t.Errorf("Max %v Mean %v, want +Inf for both", h.Max(), h.Mean())
	}
	top := h.bucketIndex(math.MaxFloat64)
	if h.bucketIndex(math.Inf(1)) != top || h.counts[top] != 2 {
		t.Errorf("+Inf and MaxFloat64 not both in the top finite bucket %d", top)
	}
	if q := h.Quantile(0.9); math.IsInf(q, 0) || q > math.MaxFloat64 || q < math.Ldexp(1, 1023) {
		t.Errorf("p90 %v, want the top finite bucket's lower bound", q)
	}
	if q := h.Quantile(0.1); q != 3 {
		t.Errorf("p10 %v, want 3", q)
	}
}
