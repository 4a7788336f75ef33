// Command dinar-client runs one FL participant of the DINAR middleware over
// TCP: it derives its deterministic data shard from the shared seed, trains
// locally each round (personalizing and obfuscating when the defense is
// DINAR), and reports its personalized model's accuracy at the end.
//
// Usage (one process per client, against a running dinar-server):
//
//	dinar-client -addr 127.0.0.1:7070 -id 0 -dataset purchase100 -defense dinar -clients 3 -rounds 5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	dinar "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dinar-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dinar-client", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7070", "server TCP address")
		id      = fs.Int("id", 0, "client id in [0, clients)")
		dataset = fs.String("dataset", "purchase100", "dataset name")
		def     = fs.String("defense", "dinar", "defense name")
		clients = fs.Int("clients", 3, "number of FL clients")
		rounds  = fs.Int("rounds", 5, "number of FL rounds")
		seed    = fs.Int64("seed", 1, "federation seed (must match server)")
		records = fs.Int("records", 1000, "dataset record count")

		maxRetries = fs.Int("max-retries", 0, "reconnection attempts after a network fault (0 = default 5, negative disables)")
		backoff    = fs.Duration("base-backoff", 0, "first reconnection delay, doubled per failure with jitter (0 = default 100ms)")
		job        = fs.String("job", "", "federation job name when the server runs in multi-tenant service mode (empty is fine against single-job servers)")
		privCkpt   = fs.String("private-checkpoint", "", "file persisting the DINAR private-layer store after every round; restarting with the same path restores the personalization state")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("dinar-client %d: joining %s\n", *id, *addr)
	res, err := dinar.RunMiddlewareClient(ctx, dinar.ClientOptions{
		Addr:     *addr,
		ClientID: *id,
		Config: dinar.Config{
			Dataset: *dataset,
			Defense: *def,
			Clients: *clients,
			Rounds:  *rounds,
			Seed:    *seed,
			Records: *records,
		},
		MaxRetries:            *maxRetries,
		BaseBackoff:           *backoff,
		Job:                   *job,
		PrivateCheckpointPath: *privCkpt,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("dinar-client %d: done; personalized model accuracy %.1f%%\n", *id, res.Accuracy*100)
	return nil
}
