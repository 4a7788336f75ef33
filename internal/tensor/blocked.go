package tensor

import (
	"sync"

	"repro/internal/parallel"
)

// Cache-blocked SIMD GEMM.
//
// The three matmul entry points (MatMul, MatMulTransA, MatMulTransB) share
// one blocked driver over the micro kernels of the host's widest tier (see
// isa.go): 4×8 AVX2 tiles (gemm_amd64.s) or 8×8 AVX-512 tiles
// (gemm512_amd64.s). The vectorization axis is the output column dimension:
// a register tile holds one accumulator lane per output element and walks
// the full inner dimension before a single store, so each element sees
// exactly the scalar kernels' operation sequence — k-ascending accumulate,
// one mul rounding and one add rounding per step, rows skipped when the A
// element is exactly zero. That makes every tier's results bit-identical to
// the naive kernels (property-tested and fuzzed per tier in blocked_test.go),
// which keeps every seeded experiment output unchanged.
//
// Layout handling (AVX2 kernel names; the AVX-512 tier has the same two,
// gemmNN8x8z and gemmTA8x8z, plus 4-row variants for a leftover strip):
//
//	layout             A                   B                    kernel
//	NN (MatMul)        m×k, in place       k×n, in place        gemmNN4x8, ldb = n
//	TA (MatMulTransA)  k×m (Aᵀ), in place  k×n, in place        gemmTA4x8, ldb = n
//	TB (MatMulTransB)  m×k, in place       n×k (Bᵀ), packed     gemmNN4x8, ldb = 8
//
// Only a transposed B is ever copied: its column lanes would stride by k, so
// it is packed once per multiply into ⌈n/8⌉ pooled column panels, each k×8
// contiguous (panel q holds columns 8q…8q+7, row p at offset 8p) and
// zero-padded past column n, shared read-only by all workers. The kernel
// then walks a panel at a 64-byte stride whatever n is. A ragged last column
// block runs through the kernel as well: on AVX-512 under a lane mask, in
// place or packed; on AVX2 only when packed, into a 4×8 stack tile whose
// valid columns are copied out, while an in-place B's ragged columns, which
// cannot be over-read, take the scalar edge kernel. A is read in place in
// every layout (packing it costs more than it saves at the dense and im2col
// shapes the models run).
//
// KC is the full inner dimension: a tile's accumulators live in registers
// from the first k step to the last and are stored once. MC and NC block
// the output rows and columns so the B panels a row block streams over stay
// cache-resident; their values come from the committed
// BenchmarkGEMMBlockSweep measurements, not guesses (see README
// "Performance").
//
// Work splits across the compute pool by 4-row strips with the same
// deterministic grain as the naive kernels, and every output element is
// computed wholly inside one chunk, so worker count cannot move results.

const (
	// gemmMR × gemmNR is the AVX2 register tile: 4 rows × 8 columns uses
	// eight YMM accumulators, two B-row vectors, one broadcast and two
	// product temporaries — 13 of the 16 YMM registers, leaving the runtime's
	// reserved registers untouched. The AVX-512 tile is 2·gemmMR rows of one
	// ZMM each.
	gemmMR = 4
	gemmNR = 8
)

// Blocking parameters and the m*k*n volume below which the matmuls stay on
// the naive kernels (kernel-call and packing overhead is not worth
// amortizing), read once per multiply. Only tests and the sweep harness
// assign them; concurrent mutation with in-flight multiplies is not
// supported.
var (
	gemmMC        = 64
	gemmNC        = 256
	gemmMinVolume = 1 << 15
)

// useBlockedGEMM reports whether a multiply of the given volume dispatches
// to the blocked SIMD path.
func useBlockedGEMM(m, k, n int) bool {
	return kernelISA >= isaAVX2 && m*k*n >= gemmMinVolume
}

// packBuf is a grow-only packing buffer recycled through a sync.Pool, so
// steady-state multiplies perform no allocations.
type packBuf struct{ d []float64 }

var packBufPool = sync.Pool{New: func() any { return new(packBuf) }}

func getPackBuf(n int) *packBuf {
	pb := packBufPool.Get().(*packBuf)
	if cap(pb.d) < n {
		pb.d = make([]float64, n)
	}
	pb.d = pb.d[:n]
	return pb
}

func putPackBuf(pb *packBuf) { packBufPool.Put(pb) }

// gemmBlocked computes out = A × B for the logical m×k matrix A and k×n
// matrix B. aTrans marks a as storing Aᵀ row-major (k×m, the MatMulTransA
// case); bTrans marks b as storing Bᵀ row-major (n×k, the MatMulTransB
// case).
func gemmBlocked(out, a, b []float64, m, k, n int, aTrans, bTrans bool) {
	if kernelISA < isaAVX2 {
		// Test-only path on machines without the micro kernels: fall back to
		// the serial naive kernels (production dispatch never gets here).
		switch {
		case aTrans:
			matMulTransACols(out, a, b, 0, m, m, k, n)
		case bTrans:
			matMulTransBRows(out, a, b, 0, m, k, n)
		default:
			matMulRows(out, a, b, 0, m, k, n)
		}
		return
	}
	lda := k
	if aTrans {
		lda = m
	}
	mc, nc := gemmMC, gemmNC
	var bp *packBuf
	if bTrans {
		bp = getPackBuf(k * roundUpNR(n))
		packTransB(bp.d, b, n, k)
		b = bp.d
		nc = roundUpNR(nc) // column blocks must not cut a panel
	}
	// The pool splits whole 4-row strips, so no chunk boundary sends rows
	// to the scalar edge kernel.
	strips := (m + gemmMR - 1) / gemmMR
	g := parallel.Grain(gemmMR * k * n)
	if parallel.Chunks(strips, g) <= 1 {
		gemmRowsSIMD(out, a, b, 0, m, k, n, lda, aTrans, bTrans, mc, nc)
	} else {
		bd := b
		parallel.For(strips, g, func(lo, hi int) {
			gemmRowsSIMD(out, a, bd, lo*gemmMR, min(hi*gemmMR, m), k, n, lda, aTrans, bTrans, mc, nc)
		})
	}
	if bp != nil {
		putPackBuf(bp)
	}
}

func roundUpNR(n int) int { return (n + gemmNR - 1) / gemmNR * gemmNR }

// packTransB packs Bᵀ (n×k row-major: row j is column j of B) into 8-wide
// column panels: dst[(j/8)·8k + 8p + j%8] = B[p][j], zero past column n.
// Each panel reads eight source rows front to back and writes its 8k
// values front to back.
func packTransB(dst, bt []float64, n, k int) {
	j := 0
	for ; j+gemmNR <= n; j += gemmNR {
		panel := dst[j*k:][:k*gemmNR]
		r0, r1, r2, r3 := bt[j*k:][:k], bt[(j+1)*k:][:k], bt[(j+2)*k:][:k], bt[(j+3)*k:][:k]
		r4, r5, r6, r7 := bt[(j+4)*k:][:k], bt[(j+5)*k:][:k], bt[(j+6)*k:][:k], bt[(j+7)*k:][:k]
		for p := range r0 {
			d := panel[p*gemmNR:][:gemmNR]
			d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
			d[4], d[5], d[6], d[7] = r4[p], r5[p], r6[p], r7[p]
		}
	}
	if j == n {
		return
	}
	panel := dst[j*k:][:k*gemmNR]
	clear(panel)
	for c := 0; j+c < n; c++ {
		for p, v := range bt[(j+c)*k:][:k] {
			panel[p*gemmNR+c] = v
		}
	}
}

// gemmRowsSIMD computes output rows [lo, hi): MC×NC output blocks are walked
// tile by tile so the NC-wide stretch of B a row block streams over stays
// cache-resident across the block's rows. The B tile for columns [j, j+8) is
// b[j:] at row stride n in place and panel b[j*k:] at row stride 8 when
// bPacked. Ragged borders compute the identical per-element operation
// sequence: on AVX-512 every column through a masked kernel, on AVX2 a
// packed B's last panel through the kernel into a stack tile; the rows
// neither tier's tiles cover, and on AVX2 an in-place B's ragged columns,
// through the scalar edge kernel.
func gemmRowsSIMD(out, a, b []float64, lo, hi, k, n, lda int, aTrans, bPacked bool, mc, nc int) {
	bStep, ldb := 1, n
	if bPacked {
		bStep, ldb = k, gemmNR
	}
	var edge [gemmMR * gemmNR]float64
	for ic := lo; ic < hi; ic += mc {
		ihi := min(ic+mc, hi)
		for jc := 0; jc < n; jc += nc {
			jhi := min(jc+nc, n)
			i := ic
			if kernelISA >= isaAVX512 {
				i = gemmRows512(out, n, a, lda, aTrans, b, ldb, bStep, ic, ihi, jc, jhi, k)
			}
			for ; i+gemmMR <= ihi; i += gemmMR {
				j := jc
				for ; j+gemmNR <= jhi; j += gemmNR {
					if aTrans {
						gemmTA4x8(&out[i*n+j], &a[i], &b[j*bStep], k, lda, ldb, n)
					} else {
						gemmNN4x8(&out[i*n+j], &a[i*lda], &b[j*bStep], k, lda, ldb, n)
					}
				}
				if j == jhi {
					continue
				}
				if !bPacked {
					gemmScalarTile(out, a, b[j:], i, i+gemmMR, j, jhi, k, n, lda, ldb, aTrans)
					continue
				}
				gemmNN4x8(&edge[0], &a[i*lda], &b[j*bStep], k, lda, ldb, gemmNR)
				for r := 0; r < gemmMR; r++ {
					copy(out[(i+r)*n+j:(i+r)*n+jhi], edge[r*gemmNR:])
				}
			}
			if i == ihi {
				continue
			}
			for j := jc; j < jhi; j += gemmNR {
				gemmScalarTile(out, a, b[j*bStep:], i, ihi, j, min(j+gemmNR, jhi), k, n, lda, ldb, aTrans)
			}
		}
	}
}

// gemmRows512 computes output rows [i0, i1) × columns [j0, j1) on the
// AVX-512 kernels, 8×8 tiles and then one 4×8 tile, and returns the first
// row it left (fewer than four remain). Each tile's column mask covers
// min(8, j1−j) columns, so a ragged column block needs no edge code. c is
// the output at row stride ldc; a and b are laid out as in gemmRowsSIMD,
// with B's column j at b[j*bStep].
func gemmRows512(c []float64, ldc int, a []float64, lda int, aTrans bool, b []float64, ldb, bStep, i0, i1, j0, j1, k int) int {
	i := i0
	for i+gemmMR <= i1 {
		rows, ai := gemmMR, i*lda
		if i+2*gemmMR <= i1 {
			rows = 2 * gemmMR
		}
		if aTrans {
			ai = i
		}
		for j := j0; j < j1; j += gemmNR {
			ct, at, bt := &c[i*ldc+j], &a[ai], &b[j*bStep]
			mask := uint64(1)<<min(j1-j, gemmNR) - 1
			switch {
			case aTrans && rows == gemmMR:
				gemmTA4x8z(ct, at, bt, k, lda, ldb, ldc, mask)
			case aTrans:
				gemmTA8x8z(ct, at, bt, k, lda, ldb, ldc, mask)
			case rows == gemmMR:
				gemmNN4x8z(ct, at, bt, k, lda, ldb, ldc, mask)
			default:
				gemmNN8x8z(ct, at, bt, k, lda, ldb, ldc, mask)
			}
		}
		i += rows
	}
	return i
}

// gemmScalarTile computes the ragged border tile [i0,i1)×[j0,j1) with plain
// scalar code: per element, a k-ascending register accumulation that skips
// zero A elements — the same sequence as both the naive kernels and the SIMD
// lanes. b starts at the tile's first column and has row stride ldb.
func gemmScalarTile(out, a, b []float64, i0, i1, j0, j1, k, n, lda, ldb int, aTrans bool) {
	for i := i0; i < i1; i++ {
		if aTrans {
			for j := j0; j < j1; j++ {
				bCol := b[j-j0:]
				var acc float64
				for p := 0; p < k; p++ {
					av := a[p*lda+i]
					if av == 0 {
						continue
					}
					acc += av * bCol[p*ldb]
				}
				out[i*n+j] = acc
			}
			continue
		}
		aRow := a[i*lda:][:k]
		for j := j0; j < j1; j++ {
			bCol := b[j-j0:]
			var acc float64
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				acc += av * bCol[p*ldb]
			}
			out[i*n+j] = acc
		}
	}
}
