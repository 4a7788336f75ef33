package tensor

// Pointwise kernels for the layers that follow a convolution (see BatchNorm,
// ReLU and MaxPool2D in internal/nn, which hold the scalar loops these
// kernels are tested against). Each wrapper runs an AVX-512 kernel of
// pointwise_amd64.s over the longest prefix it covers and reports its
// length; the caller's scalar loop runs the rest. Below the AVX-512 tier
// they cover nothing. Every wrapper checks up front that its slices hold
// what the kernel will touch, so a short slice panics before a kernel runs.

// BatchNormNormalize writes od = gamma[c]·((x − mean[c])·invStd[c]) +
// beta[c] over whole batch items of xd, laid out [items, C, spatial], and
// returns how many items it covered: all of them on the AVX-512 tier, none
// below. od must be at least as long as xd and the four coefficient slices
// at least C long.
func BatchNormNormalize(od, xd, mean, invStd, gamma, beta []float64, C, spatial int) int {
	run := C * spatial
	if kernelISA < isaAVX512 || run <= 0 || len(xd) < run {
		return 0
	}
	items := len(xd) / run
	_ = od[items*run-1]
	_, _, _, _ = mean[C-1], invStd[C-1], gamma[C-1], beta[C-1]
	bnNormalizeAVX512(&od[0], &xd[0], &mean[0], &invStd[0], &gamma[0], &beta[0], items, C, spatial)
	return items
}

// BatchNormGradIn writes gid = k[c]·(god − dbeta[c] − ((x − mean[c])·
// invStd[c])·dgamma[c]) over whole batch items of xd, laid out
// [items, C, spatial], and returns how many items it covered: all of them on
// the AVX-512 tier, none below. gid and god must be at least as long as xd
// and the five coefficient slices at least C long.
func BatchNormGradIn(gid, god, xd, mean, invStd, k, dbeta, dgamma []float64, C, spatial int) int {
	run := C * spatial
	if kernelISA < isaAVX512 || run <= 0 || len(xd) < run {
		return 0
	}
	items := len(xd) / run
	_, _ = gid[items*run-1], god[items*run-1]
	_, _, _, _, _ = mean[C-1], invStd[C-1], k[C-1], dbeta[C-1], dgamma[C-1]
	bnGradInAVX512(&gid[0], &god[0], &xd[0], &mean[0], &invStd[0], &k[0], &dbeta[0], &dgamma[0], items, C, spatial)
	return items
}

// KeepPositive writes dst[i] = src[i] where sign[i] > 0 and +0 elsewhere,
// NaN included, for every i of src and returns len(src) on the AVX-512 tier,
// 0 below. dst and sign must be at least as long as src.
func KeepPositive(dst, src, sign []float64) int {
	if kernelISA < isaAVX512 || len(src) == 0 {
		return 0
	}
	n := len(src)
	_, _ = dst[n-1], sign[n-1]
	keepPositiveAVX512(&dst[0], &src[0], &sign[0], n)
	return n
}

// poolBlock is how many outputs one MaxPool2x2 step writes: one ZMM
// register of maxima and one of argmax indices.
const poolBlock = 8

// MaxPool2x2 max-pools 2×2 windows at stride 2 that tile the input: src
// holds whole rows of width 2·ow, output row r reads input rows 2r and
// 2r+1, and dst and argmax hold the output rows, ow wide. Each output keeps
// the first strict maximum of its window in row-major tap order, so a NaN
// wins only as the first tap, and argmax gets that tap's index into src
// plus base. It covers a prefix of whole output rows, whole 8-output blocks
// of them, and returns its length: none below the AVX-512 tier, and none
// unless ow divides 8 or is a multiple of it. src must hold four elements
// per element of dst, and argmax must be at least as long as dst.
func MaxPool2x2(dst []float64, argmax []int, src []float64, ow, base int) int {
	if kernelISA < isaAVX512 || ow <= 0 || (poolBlock%ow != 0 && ow%poolBlock != 0) || len(dst) < poolBlock {
		return 0
	}
	n := len(dst) &^ (poolBlock - 1)
	if ow > poolBlock {
		n = len(dst) / ow * ow // whole rows are whole blocks
	}
	if n == 0 {
		return 0
	}
	_, _ = argmax[n-1], src[4*n-1]
	t := maxPoolTables(ow)
	chunks, w2 := 1, 2*poolBlock
	if ow > poolBlock {
		chunks, w2 = ow/poolBlock, 2*ow
	}
	maxPool2x2AVX512(&dst[0], &argmax[0], &src[0], n/poolBlock, chunks, w2, base, &t)
	return n
}

// poolTables are MaxPool2x2's permutation and offset tables, one ZMM
// register each: the even and odd lanes of two registers (a row's left and
// right taps), the top-row and bottom-row lanes of the deinterleaved left
// (or right) taps, and each tap's offset from the block's first element.
type poolTables struct {
	evens, odds, top, bottom [poolBlock]int64
	off                      [4][poolBlock]int64
}

// maxPoolTables returns the tables for output rows ow wide. A kernel step
// loads 16 elements from the block's start and 16 from w2 further (the next
// 16 when ow ≤ 8, the bottom row when ow is a multiple of 8), splits each
// pair of registers into left taps E and right taps O (element e of E sits
// at 2e from the start for e < 8 and at w2 + 2(e−8) after), and picks each
// output's top and bottom tap from E and O.
func maxPoolTables(ow int) poolTables {
	var t poolTables
	rw, w2 := ow, int64(2*poolBlock) // the width of one row in E
	if ow >= poolBlock {
		rw, w2 = poolBlock, int64(2*ow)
	}
	pos := func(e int64) int64 {
		if e < poolBlock {
			return 2 * e
		}
		return w2 + 2*(e-poolBlock)
	}
	for j := 0; j < poolBlock; j++ {
		t.evens[j], t.odds[j] = int64(2*j), int64(2*j+1)
		t.top[j] = int64(j/rw*2*rw + j%rw)
		t.bottom[j] = t.top[j] + int64(rw)
		t.off[0][j], t.off[1][j] = pos(t.top[j]), pos(t.top[j])+1
		t.off[2][j], t.off[3][j] = pos(t.bottom[j]), pos(t.bottom[j])+1
	}
	return t
}
