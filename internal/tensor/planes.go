package tensor

// Byte-plane transposes for the lossless wire (flnet's plane sections): plane
// p of a state holds byte p of every coordinate's IEEE bits, least
// significant first, optionally XORed with an anchor state's bits.
// ScatterPlanes and GatherPlanes run the vector kernels of planes_amd64.s
// over the longest prefix they cover and report its length; the caller's
// scalar loop, the reference the kernels are tested against, runs the rest.

// planeStep is how many coordinates one kernel step transposes.
const planeStep = 32

// planeSpan is the prefix of state the kernels cover: whole steps, and with
// an anchor only as far as the anchor reaches. It is 0 below the AVX2 tier.
func planeSpan(n int, base []float64) int {
	if kernelISA < isaAVX2 {
		return 0
	}
	if len(base) != 0 && len(base) < n {
		n = len(base)
	}
	return n &^ (planeStep - 1)
}

// anchor returns the kernels' anchor pointer: nil for no anchor.
func anchor(base []float64) *float64 {
	if len(base) == 0 {
		return nil
	}
	return &base[0]
}

// ScatterPlanes writes planes[p][i] = byte p of state[i]'s bits, XORed with
// base[i]'s where base has an i, for a prefix of state, and returns the
// prefix's length. Every plane must be at least as long as state.
func ScatterPlanes(planes *[8][]byte, state, base []float64) int {
	k := planeSpan(len(state), base)
	if k == 0 {
		return 0
	}
	for _, p := range planes {
		_ = p[k-1]
	}
	scatterPlanesAVX2(planes, &state[0], anchor(base), k)
	return k
}

// GatherPlanes is ScatterPlanes backwards: dst[i] from byte i of every
// plane, for a prefix of dst whose length it returns. Every plane must be at
// least as long as dst.
func GatherPlanes(dst []float64, planes *[8][]byte, base []float64) int {
	k := planeSpan(len(dst), base)
	if k == 0 {
		return 0
	}
	for _, p := range planes {
		_ = p[k-1]
	}
	gatherPlanesAVX2(&dst[0], planes, anchor(base), k)
	return k
}
