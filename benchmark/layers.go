package main

import (
	"time"
)

// Per-layer metrics are computed after the run from the records the
// wrappers filled. Sampled rounds of a traced segment are 1 … rounds-2:
// round 0 is warm-up and the last round copies states for the probes.
//
// Client 0's round r — AfterRound(r-1) → AfterRound(r) — is tiled by
//
//	turnaround(r)  AfterRound(r-1) → OnGlobalModel(r) entry
//	on_global(r)   inside Defense.OnGlobalModel
//	train(r)       OnGlobalModel return → BeforeUpload entry
//	before_upload  inside Defense.BeforeUpload
//	upload(r)      BeforeUpload return → AfterRound(r)
//
// and, on TCP, the server's conn records split turnaround(r) into
//
//	collect(r-1)   AfterRound(r-1) → last upload byte of round r-1 read
//	tail(r-1)      that byte → first byte of round r's broadcast written
//	deliver(r)     that byte → OnGlobalModel(r) entry at client 0
//
// The ledger attributes these (as sums over all sampled rounds, so the
// shares add up to exactly 1):
//
//	client      on_global + train + before_upload
//	wire        upload + deliver + one update decode and one broadcast
//	            encode inside tail (probe medians: the last upload's
//	            decode and the broadcast's encode block the round)
//	peer_wait   collect: the other client still training or uploading
//	server      screen + aggregate, as RoundTiming reports them
//	checkpoint  the write the round loop blocked on (mean per round from
//	            the server's round-tail / pipeline-stall histograms)
//	residual    what is left of tail: state copies, sorting, logging,
//	            scheduling — time no span or probe explains

type durations []time.Duration

func (d durations) sum() (t time.Duration) {
	for _, v := range d {
		t += v
	}
	return t
}

// layerSamples accumulates per-round samples over the traced segments.
type layerSamples struct {
	wall, onGlobal, train, beforeUpload, upload, turnaround durations
	trainShare                                              []float64
	collect, tail, deliver                                  durations
	wait, broadcast, screen, aggregate                      durations
	uploadTransfer, broadcastWrite                          durations
	uploadBytes, broadcastBytes, reads, writes              []float64
	checkpoint                                              time.Duration // summed blocking checkpoint time
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.IsZero() || b.Before(a) {
		return b
	}
	return a
}

// lastByte and bcastFirst are round r's two server-side instants: the last
// upload byte read on any conn, and the first broadcast byte written on any.
func (s *segment) lastByte(r int) (t time.Time) {
	for _, c := range s.conns {
		t = maxTime(t, c.ex[firstBroadcastIndex+r].lastRead)
	}
	return t
}

func (s *segment) bcastFirst(r int) (t time.Time) {
	for _, c := range s.conns {
		t = minTime(t, c.ex[firstBroadcastIndex+r].wStart)
	}
	return t
}

func (ls *layerSamples) addSegment(s *segment) {
	tl := s.timelines[0]
	inProc := s.conns == nil
	for r := 1; r < s.rounds-1; r++ {
		wall := tl.after[r].Sub(tl.after[r-1])
		og := tl.ogExit[r].Sub(tl.ogEnter[r])
		train := tl.buEnter[r].Sub(tl.ogExit[r])
		bu := tl.buExit[r].Sub(tl.buEnter[r])
		var upload time.Duration
		if !inProc {
			upload = tl.after[r].Sub(tl.buExit[r])
		}
		ls.wall = append(ls.wall, wall)
		ls.onGlobal = append(ls.onGlobal, og)
		ls.train = append(ls.train, train)
		ls.beforeUpload = append(ls.beforeUpload, bu)
		ls.upload = append(ls.upload, upload)
		ls.turnaround = append(ls.turnaround, wall-og-train-bu-upload)
		ls.trainShare = append(ls.trainShare, float64(train)/float64(wall))

		if inProc {
			// The aggregation that ends RunRound(r) is inside round r.
			agg := s.aggTimings[r]
			ls.screen = append(ls.screen, agg.Screen)
			ls.aggregate = append(ls.aggregate, agg.Aggregate)
			ls.collect = append(ls.collect, tl.after[r].Sub(tl.buExit[r])-agg.Screen-agg.Aggregate)
			continue
		}
		last := s.lastByte(r - 1)
		first := s.bcastFirst(r)
		ls.collect = append(ls.collect, last.Sub(tl.after[r-1]))
		ls.tail = append(ls.tail, first.Sub(last))
		ls.deliver = append(ls.deliver, tl.ogEnter[r].Sub(first))
		// Round r's turnaround holds the aggregation of round r-1.
		timing := s.reports[r-1].Timing
		ls.screen = append(ls.screen, timing.Screen)
		ls.aggregate = append(ls.aggregate, timing.Aggregate)
		ls.wait = append(ls.wait, s.reports[r].Timing.Wait)
		ls.broadcast = append(ls.broadcast, s.reports[r].Timing.Broadcast)
		var reads int
		for _, c := range s.conns {
			e := c.ex[firstBroadcastIndex+r]
			ls.uploadTransfer = append(ls.uploadTransfer, e.lastRead.Sub(e.firstRead))
			ls.broadcastWrite = append(ls.broadcastWrite, e.wEnd.Sub(e.wStart))
			ls.uploadBytes = append(ls.uploadBytes, float64(e.rBytes))
			ls.broadcastBytes = append(ls.broadcastBytes, float64(e.wBytes))
			reads += e.reads
		}
		ls.reads = append(ls.reads, float64(reads))
		ls.writes = append(ls.writes, float64(len(s.conns))) // one frame, one Write, per conn
	}
	if inProc {
		return
	}
	// The histograms give the blocking checkpoint time only as a sum over
	// the segment's rounds; spread it evenly over the sampled ones.
	blocking := s.tel.RoundTailSeconds
	if s.tel.PipelineStallSeconds.Count() > 0 {
		blocking = s.tel.PipelineStallSeconds
	}
	perRound := blocking.Sum() / float64(s.rounds)
	ls.checkpoint += time.Duration(perRound * float64(s.rounds-2) * float64(time.Second))
}

// perLayerMetrics computes every per-layer metric of a traced run. traced
// and untraced are the run's alternating segments; probes holds the direct
// probe results and startup what the process cost before main ran.
func perLayerMetrics(w workload, traced, untraced []*segment, probes map[string]float64, startup time.Duration) map[string]float64 {
	var ls layerSamples
	for _, s := range traced {
		ls.addSegment(s)
	}
	p50 := func(d durations) float64 { return ms(percentile(d, 0.5)) }
	out := map[string]float64{
		"core.on_global_ms":      p50(ls.onGlobal),
		"fl.client_train_ms":     p50(ls.train),
		"fl.client_train_share":  median(ls.trainShare),
		"core.before_upload_ms":  p50(ls.beforeUpload),
		"flnet.client_upload_ms": p50(ls.upload),
		"flnet.turnaround_ms":    p50(ls.turnaround),

		"flnet.wait_ms":                    p50(ls.wait),
		"flnet.broadcast_ms":               p50(ls.broadcast),
		"fl.screen_ms":                     p50(ls.screen),
		"fl.aggregate_ms":                  p50(ls.aggregate),
		"flnet.upload_transfer_ms":         p50(ls.uploadTransfer),
		"flnet.broadcast_write_ms":         p50(ls.broadcastWrite),
		"flnet.round_tail_ms":              p50(ls.tail),
		"flnet.upload_bytes_per_client":    median(ls.uploadBytes),
		"flnet.broadcast_bytes_per_client": median(ls.broadcastBytes),
		"flnet.server_reads_per_round":     median(ls.reads),
		"flnet.server_writes_per_round":    median(ls.writes),

		"runtime.startup_ms":  ms(startup),
		"trace.round_samples": float64(len(ls.wall)),
		"final_accuracy":      traced[0].accuracy,
	}
	for name, v := range probes {
		out[name] = v
	}

	// Set-up spans of the TCP path (the in-process ones come from probes).
	all := append(append([]*segment(nil), traced...), untraced...)
	if !w.InProc {
		var gen, build, register []float64
		for _, s := range all {
			gen = append(gen, ms(s.dataDone.Sub(s.start)))
			build = append(build, ms(s.modelDone.Sub(s.dataDone)))
			register = append(register, ms(s.setupDone.Sub(s.modelDone)))
		}
		out["data.generate_ms"] = median(gen)
		out["model.build_ms"] = median(build)
		out["flnet.register_ms"] = median(register)
	}

	var rounds float64
	var gcCycles float64
	var gcPause time.Duration
	var heapPeak uint64
	for _, s := range all {
		rounds += float64(s.timedRounds())
		gcCycles += float64(s.after.gcCycles - s.before.gcCycles)
		gcPause += s.after.gcPause - s.before.gcPause
		if s.heapPeak > heapPeak {
			heapPeak = s.heapPeak
		}
	}
	out["runtime.gc_cycles_per_round"] = gcCycles / rounds
	out["runtime.gc_pause_ms_per_round"] = ms(gcPause) / rounds
	out["runtime.heap_inuse_peak_mb"] = float64(heapPeak) / (1 << 20)

	// Ledger.
	total := float64(ls.wall.sum())
	n := float64(len(ls.wall))
	probeMs := func(name string) float64 { return probes[name] * n * float64(time.Millisecond) }
	client := float64(ls.onGlobal.sum() + ls.train.sum() + ls.beforeUpload.sum())
	wire, checkpoint := 0.0, 0.0
	if !w.InProc {
		wire = float64(ls.upload.sum()+ls.deliver.sum()) + probeMs("flnet.decode_update_ms") + probeMs("flnet.encode_global_ms")
		checkpoint = float64(ls.checkpoint)
	}
	peer := float64(ls.collect.sum())
	server := float64(ls.screen.sum() + ls.aggregate.sum())
	out["ledger.client_share"] = client / total
	out["ledger.wire_share"] = wire / total
	out["ledger.peer_wait_share"] = peer / total
	out["ledger.server_share"] = server / total
	out["ledger.checkpoint_share"] = checkpoint / total
	out["ledger.residual_share"] = (total - client - wire - peer - server - checkpoint) / total

	var plain, plainAll durations
	for _, s := range untraced {
		plain = append(plain, s.roundWalls(true)...)
		plainAll = append(plainAll, s.roundWalls(false)...)
	}
	out["trace.overhead_share"] = float64(percentile(ls.wall, 0.5))/float64(percentile(plain, 0.5)) - 1
	out["round_wall_ms_p90"] = ms(percentile(plainAll, 0.9))
	return out
}

// spansOf materializes a traced segment's records as spans, with times
// relative to epoch.
func spansOf(s *segment, epoch time.Time) []span {
	var spans []span
	add := func(name, parent string, round, client int, start, end time.Time) {
		if start.IsZero() || end.IsZero() {
			return
		}
		spans = append(spans, span{
			Name: name, Parent: parent, Segment: s.index, Round: round, Client: client,
			StartNs: start.Sub(epoch).Nanoseconds(), EndNs: end.Sub(epoch).Nanoseconds(),
		})
	}
	add("setup", "", -1, -1, s.start, s.setupDone)
	if s.conns != nil {
		add("data.generate", "setup", -1, -1, s.start, s.dataDone)
		add("model.build", "setup", -1, -1, s.dataDone, s.modelDone)
		add("flnet.register", "setup", -1, -1, s.modelDone, s.setupDone)
	}
	for id, tl := range s.timelines {
		for r := 0; r < s.rounds; r++ {
			if r > 0 {
				add("round", "", r, id, tl.after[r-1], tl.after[r])
			}
			add("core.on_global", "round", r, id, tl.ogEnter[r], tl.ogExit[r])
			add("fl.client_train", "round", r, id, tl.ogExit[r], tl.buEnter[r])
			add("core.before_upload", "round", r, id, tl.buEnter[r], tl.buExit[r])
			if s.conns != nil {
				add("flnet.client_upload", "round", r, id, tl.buExit[r], tl.after[r])
			}
		}
	}
	for ci, c := range s.conns {
		for r := 0; r < s.rounds; r++ {
			e := c.ex[firstBroadcastIndex+r]
			add("flnet.broadcast_write", "round", r, ci, e.wStart, e.wEnd)
			add("flnet.upload_transfer", "round", r, ci, e.firstRead, e.lastRead)
		}
	}
	if s.conns != nil {
		for r := 0; r < s.rounds-1; r++ {
			add("flnet.round_tail", "round", r, -1, s.lastByte(r), s.bcastFirst(r+1))
		}
	}
	return spans
}
