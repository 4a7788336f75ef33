// Package chaos is the middleware's seeded fault-injection harness: a
// deterministic failure scheduler (server crashes, checkpoint corruption,
// client restarts, network partitions) plus file-corruption and
// metric-parsing helpers. The chaos soak test drives a real multi-client
// federation through the schedule and asserts the crash-safe
// lifecycle invariants: a faulted run converges to the same global model
// bit-for-bit as an unfaulted run of the same seed, quarantine penalties
// survive restarts, and every drain leaves zero goroutines behind.
//
// Everything is derived from one int64 seed, so a failing soak replays
// exactly.
package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fl"
)

// EventKind enumerates the fault classes the scheduler can emit.
type EventKind int

// Fault classes.
const (
	// CrashServer kills the server mid-federation; the harness resumes it
	// from its checkpoint chain.
	CrashServer EventKind = iota + 1
	// CorruptCheckpoint flips a byte of the newest checkpoint generation
	// while the server is down, forcing resume to fall back a generation.
	CorruptCheckpoint
	// RestartClient kills one client and restarts it as a fresh process
	// (rejoining via Hello.LastRound).
	RestartClient
	// PartitionClient injects a connection fault (reset/partition) against
	// one client via faultnet.
	PartitionClient
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case CrashServer:
		return "crash-server"
	case CorruptCheckpoint:
		return "corrupt-checkpoint"
	case RestartClient:
		return "restart-client"
	case PartitionClient:
		return "partition-client"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one scheduled fault, keyed by the federation round it fires at
// (the round granularity makes schedules replayable: wall-clock timing
// races cannot change which state a fault observes).
type Event struct {
	// Round is the checkpoint round the fault waits for before firing.
	Round int
	// Kind is the fault class.
	Kind EventKind
	// Client is the target client id for client faults, -1 for server
	// faults.
	Client int
}

// Plan bounds a seeded schedule.
type Plan struct {
	// Rounds is the federation length; faults are scheduled strictly
	// before the last round so the run can still finish.
	Rounds int
	// NumClients sizes the client-fault target pool.
	NumClients int
	// Crashes is how many server crash/resume cycles to schedule, each at
	// a distinct round in [CrashMinRound, Rounds-1).
	Crashes int
	// CrashMinRound is the earliest round a crash may fire (default 2 —
	// late enough that a first checkpoint, including any round-0 screen
	// verdicts, is already durable).
	CrashMinRound int
	// Corruptions is how many crashes additionally corrupt the newest
	// checkpoint generation while the server is down (capped at Crashes).
	Corruptions int
	// Restarts is how many client restarts to schedule.
	Restarts int
	// Partitions is how many connection faults to schedule.
	Partitions int
}

// Schedule derives a deterministic fault schedule from seed: same seed
// and plan, same events, in firing order. Crash rounds are distinct so
// every crash observes fresh progress; corruptions ride on the first
// crashes of the schedule.
func Schedule(seed int64, p Plan) []Event {
	rng := rand.New(rand.NewSource(int64(fl.Mix64(uint64(seed)))))
	minRound := p.CrashMinRound
	if minRound < 2 {
		minRound = 2
	}
	// Faults fire on rounds [minRound, Rounds-1): the last round stays
	// clean so the federation can always complete.
	span := p.Rounds - 1 - minRound
	if span < 1 {
		span = 1
	}
	var evs []Event
	perm := rng.Perm(span)
	for i := 0; i < p.Crashes; i++ {
		evs = append(evs, Event{Round: minRound + perm[i%len(perm)], Kind: CrashServer, Client: -1})
	}
	corruptions := p.Corruptions
	if corruptions > p.Crashes {
		corruptions = p.Crashes
	}
	for i := 0; i < corruptions; i++ {
		// Same round as crash i: the corruption happens while that crash
		// holds the server down.
		evs = append(evs, Event{Round: evs[i].Round, Kind: CorruptCheckpoint, Client: -1})
	}
	for i := 0; i < p.Restarts; i++ {
		evs = append(evs, Event{Round: minRound + rng.Intn(span), Kind: RestartClient, Client: rng.Intn(p.NumClients)})
	}
	for i := 0; i < p.Partitions; i++ {
		evs = append(evs, Event{Round: minRound + rng.Intn(span), Kind: PartitionClient, Client: rng.Intn(p.NumClients)})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Round != evs[j].Round {
			return evs[i].Round < evs[j].Round
		}
		return evs[i].Kind < evs[j].Kind
	})
	return evs
}

// CorruptFile flips one byte of the file at path in place (no atomic
// rename — this simulates bit rot / a torn write, not a well-behaved
// writer). The flipped offset is derived from seed, so a corruption is as
// replayable as everything else in the schedule.
func CorruptFile(path string, seed int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("chaos: corrupt %s: %w", path, err)
	}
	if len(data) == 0 {
		return fmt.Errorf("chaos: corrupt %s: file is empty", path)
	}
	off := int(fl.Mix64(uint64(seed)) % uint64(len(data)))
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("chaos: corrupt %s: %w", path, err)
	}
	return nil
}

// ParseMetrics parses the Prometheus text exposition format (the subset
// telemetry.WritePrometheusMerged emits) into metric name -> value.
// Labeled series (histogram buckets) are skipped; counters, gauges, and
// histogram _count/_sum series are returned.
func ParseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out
}
