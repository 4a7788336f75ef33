package fl

import "math"

// Top-k selection by magnitude. |v| is ordered by the IEEE-754 bit pattern
// with the sign bit cleared: for finite values that is exactly the order of
// the magnitudes, −0 and +0 are the same key, and NaN sorts above Inf — a
// total order, so the result is defined (and deterministic) for any input.

const (
	// magnitudeMask clears the sign bit of a float64's bit pattern.
	magnitudeMask = 1<<63 - 1
	// infMagnitude is the magnitude pattern of ±Inf; every NaN is above it.
	infMagnitude = 0x7ff << 52
	// radixBits is the digit width of the radix select: four digits cover
	// the 63 magnitude bits.
	radixBits    = 16
	radixBuckets = 1 << radixBits
)

// kthLargestMagnitude returns the magnitude bit pattern of the k-th largest
// |a[i] − b[i]| (1-based, 1 ≤ k ≤ len(a) = len(b)) and how many differences
// are strictly larger than it. It is a most-significant-digit radix select:
// each of the four passes histograms one 16-bit digit of the differences
// that still match the digits fixed so far, then walks the buckets downward
// to the one holding the k-th largest — O(len(a)) with no comparisons
// between elements and no buffer of differences (a subtraction per pass is
// cheaper than the memory to keep them). hist is caller-owned scratch of
// radixBuckets counters.
func kthLargestMagnitude(a, b []float64, k int, hist []uint32) (threshold uint64, above int) {
	hist = hist[:radixBuckets]
	b = b[:len(a)]
	// pick walks the histogram from the top bucket down to the one that
	// contains the k-th largest element, counting the elements it passes.
	pick := func() uint64 {
		d := radixBuckets - 1
		for above+int(hist[d]) < k {
			above += int(hist[d])
			d--
		}
		return uint64(d)
	}
	clear(hist)
	for i, v := range a {
		hist[(math.Float64bits(v-b[i])&magnitudeMask)>>(3*radixBits)]++
	}
	threshold = pick()
	for shift := uint(2 * radixBits); ; shift -= radixBits {
		clear(hist)
		for i, v := range a {
			// shift&63 tells the compiler the count is in range (no
			// oversized-shift branch in the loop).
			m := (math.Float64bits(v-b[i]) & magnitudeMask) >> (shift & 63)
			if m>>radixBits == threshold {
				hist[m&(radixBuckets-1)]++
			}
		}
		threshold = threshold<<radixBits | pick()
		if shift == 0 {
			return threshold, above
		}
	}
}

// KthLargestAbsDiff returns the k-th largest |a[i] − b[i]| (1-based,
// 1 ≤ k ≤ len(a) = len(b)) and the number of differences strictly larger,
// in linear time. Keeping those plus the first k−above differences equal to
// the threshold, by index, is an exact and deterministic top-k even with
// ties.
func KthLargestAbsDiff(a, b []float64, k int) (threshold float64, above int) {
	bits, above := kthLargestMagnitude(a, b, k, make([]uint32, radixBuckets))
	return math.Float64frombits(bits), above
}
