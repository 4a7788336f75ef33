package bench

import (
	"bytes"
	"context"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/fleetsim"
	"repro/internal/flnet"
)

// wireDim is the state-vector length the wire benches and round_throughput
// measure at.
const wireDim = 4096

// wireGlobal builds a deterministic dim-sized Global message.
func wireGlobal(dim int) *flnet.Message {
	state := fleetsim.SynthState(17, 1, 1, dim, nil)
	return &flnet.Message{Kind: flnet.KindGlobal, Round: 3, State: state}
}

// benchWireEncode times the zero-reflection binary frame encoder on a full
// Global broadcast (the per-frame hot path every exchange pays twice).
func benchWireEncode(b *testing.B) {
	codec := flnet.NewCodec(flnet.CapBinary, 0, 0, nil)
	msg := wireGlobal(wireDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := flnet.WriteMessageWith(io.Discard, msg, codec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(8 * wireDim))
}

// benchWireDecode times the matching decoder, reusing one state buffer the
// way the server's exchange path does.
func benchWireDecode(b *testing.B) {
	codec := flnet.NewCodec(flnet.CapBinary, 0, 0, nil)
	var frame bytes.Buffer
	if err := flnet.WriteMessageWith(&frame, wireGlobal(wireDim), codec); err != nil {
		b.Fatal(err)
	}
	raw := frame.Bytes()
	var msg flnet.Message
	r := bytes.NewReader(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		if err := flnet.ReadMessageWith(r, &msg, codec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(8 * wireDim))
}

// quantDim is the state-vector length the quantized-encode benches measure
// at: purchase100/FCNN6, the model the round benchmark's quantized workload
// uploads every round.
const quantDim = 485572

// benchQuantEncode times one steady-state int8 upload encode at quantDim the
// way a session's codec runs it (one encoder, one payload, reused): topK 0.1
// is the selection plus 10% of the rounding work, topK 0 the dense rounding
// alone.
func benchQuantEncode(topK float64) func(b *testing.B) {
	return func(b *testing.B) {
		base := fleetsim.SynthState(17, 0, 0, quantDim, nil)
		state := fleetsim.SynthState(17, 1, 1, quantDim, nil)
		var enc fl.DeltaEncoder
		var p fl.DeltaPayload
		encode := func(round int) {
			if err := enc.Encode(&p, fl.QuantInt8, 7, 1, round, round, base, state, topK); err != nil {
				b.Fatal(err)
			}
		}
		encode(0) // sizes the scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encode(i + 1)
		}
		b.SetBytes(int64(8 * quantDim))
	}
}

// exactUpdates is the cohort the exact-accumulator benches fold: two
// quantDim-sized clients with unequal sample counts, the shape of every
// FCNN6 workload of the round benchmark.
func exactUpdates() []*fl.Update {
	return []*fl.Update{
		{ClientID: 0, NumSamples: 300, State: fleetsim.SynthState(17, 0, 1, quantDim, nil)},
		{ClientID: 1, NumSamples: 200, State: fleetsim.SynthState(17, 1, 1, quantDim, nil)},
	}
}

// benchExactFold times the fold half of one FedAvg round on a reused
// aggregator: Begin (the accumulator reset) and one Fold per update.
func benchExactFold(b *testing.B) {
	ups := exactUpdates()
	agg := fl.NewStreamingFedAvg()
	fold := func() {
		agg.Begin(0, ups[0].State)
		for _, u := range ups {
			if err := agg.Fold(u); err != nil {
				b.Fatal(err)
			}
		}
	}
	fold() // sizes the accumulator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fold()
	}
	b.SetBytes(int64(8 * quantDim * len(ups)))
}

// benchExactFinalize times the other half: rounding the folded accumulator
// into the next global state (Finalize leaves the accumulator as it found
// it, so one folded round serves every iteration).
func benchExactFinalize(b *testing.B) {
	agg := fl.NewStreamingFedAvg()
	for _, u := range exactUpdates() {
		if err := agg.Fold(u); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(8 * quantDim))
}

// benchFedAvg times the materialized FedAvg over the same cohort, the call
// DINAR's Aggregate makes every round on the lossless and in-process rows,
// the returned state's allocation included.
func benchFedAvg(b *testing.B) {
	ups := exactUpdates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fl.FedAvg(ups); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(8 * quantDim * len(ups)))
}

// benchBytesPerRound measures bytes on the wire per federation round with
// the full codec stack on (flate + int8 quantized uploads + delta
// broadcasts): the same sampled streaming federation as round_throughput,
// with the tx+rx counter movement divided by the round count published as
// the "bytes/round" extra metric — the number EXPERIMENTS.md tracks
// against a codec-free session.
func benchBytesPerRound(b *testing.B) {
	txBefore, _ := flnet.WireBytesTotals()
	sampledFederation(b, flnet.ServerConfig{Compress: true, Quantize: "int8", Delta: true, QuantSeed: 7})
	// Both ends run in-process, so the tx counter movement alone is the
	// server's tx+rx: every frame either side writes is counted exactly
	// once (counting rx too would double every frame).
	txAfter, _ := flnet.WireBytesTotals()
	b.ReportMetric(float64(txAfter-txBefore)/float64(b.N), "bytes/round")
}

// losslessFrames are the inputs of the wire_lossless_* benches: the state
// the round benchmark's FCNN6 rows put on the lossless wire.
type losslessFrames struct {
	prev, next []float64  // the broadcasts of rounds 1 and 2
	upload     *fl.Update // client 0's round-1 upload, trained from prev
}

// fcnn6System assembles the round benchmark's FCNN6 rows as an fl.System:
// purchase100, 800 records, 2 clients, DINAR + Adagrad, one epoch of batch
// 64.
func fcnn6System() (*fl.System, error) {
	cfg := fl.Config{
		Dataset: "purchase100", Records: 800, Clients: 2, Rounds: 2,
		LocalEpochs: 1, BatchSize: 64, Optimizer: "adagrad",
		LearningRate: fl.DefaultLearningRate("purchase100", "adagrad"),
		Seed:         7,
	}
	def, err := defense.New("dinar", cfg.DefenseSeed(), cfg.Clients)
	if err != nil {
		return nil, err
	}
	return fl.NewSystem(cfg, def)
}

// captureLossless runs two seeded rounds of fcnn6System, once per process.
var captureLossless = sync.OnceValues(func() (*losslessFrames, error) {
	sys, err := fcnn6System()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err := sys.RunRound(ctx); err != nil {
		return nil, err
	}
	in := &losslessFrames{prev: sys.Server.GlobalState()}
	ups, err := sys.RunRound(ctx)
	if err != nil {
		return nil, err
	}
	in.upload = ups[0]
	in.next = sys.Server.GlobalState()
	return in, nil
})

// losslessFixture returns what one wire_lossless_* bench runs on: a session
// codec with the caps the round benchmark's lossless row negotiates,
// anchored on the captured round-1 broadcast as both ends of such a session
// are after that round's Global frame; the captured message of the given
// kind (the round-2 broadcast or client 0's round-1 upload); and its frame.
func losslessFixture(b *testing.B, kind flnet.Kind) (*flnet.Codec, *flnet.Message, []byte) {
	in, err := captureLossless()
	if err != nil {
		b.Fatal(err)
	}
	codec := flnet.NewCodec(flnet.CapBinary|flnet.CapFlate|flnet.CapDelta, 0, 0, func(round int) []float64 {
		if round == 1 {
			return in.prev
		}
		return nil
	})
	msg := &flnet.Message{Kind: kind, Round: 2, State: in.next}
	if u := in.upload; kind == flnet.KindUpdate {
		msg = &flnet.Message{Kind: kind, ClientID: u.ClientID, Round: u.Round, State: u.State, NumSamples: u.NumSamples}
	}
	var frame bytes.Buffer
	if err := flnet.WriteMessageWith(&frame, msg, codec); err != nil {
		b.Fatal(err)
	}
	return codec, msg, frame.Bytes()
}

// benchWireLosslessEncode times WriteMessageWith on a captured FCNN6 frame
// under flate+delta and publishes the frame's size as "bytes/frame".
func benchWireLosslessEncode(kind flnet.Kind) func(b *testing.B) {
	return func(b *testing.B) {
		codec, msg, frame := losslessFixture(b, kind)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := flnet.WriteMessageWith(io.Discard, msg, codec); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(8 * len(msg.State)))
		b.ReportMetric(float64(len(frame)), "bytes/frame")
	}
}

// benchWireLosslessDecode times the matching ReadMessageWith into a reused
// message, checking once that the frame decodes to the bits it encoded.
func benchWireLosslessDecode(kind flnet.Kind) func(b *testing.B) {
	return func(b *testing.B) {
		codec, msg, frame := losslessFixture(b, kind)
		var got flnet.Message
		r := bytes.NewReader(frame)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(frame)
			if err := flnet.ReadMessageWith(r, &got, codec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.SetBytes(int64(8 * len(msg.State)))
		b.ReportMetric(float64(len(frame)), "bytes/frame")
		if len(got.State) != len(msg.State) {
			b.Fatalf("decoded %d values, want %d", len(got.State), len(msg.State))
		}
		for i, v := range msg.State {
			if math.Float64bits(got.State[i]) != math.Float64bits(v) {
				b.Fatalf("state[%d] decoded to %x, encoded %x", i, math.Float64bits(got.State[i]), math.Float64bits(v))
			}
		}
	}
}
