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

// flags declares dinar-client's flags on a new set, bound into o.
func flags(o *dinar.ClientOptions) *flag.FlagSet {
	fs := flag.NewFlagSet("dinar-client", flag.ContinueOnError)
	fs.StringVar(&o.Addr, "addr", "127.0.0.1:7070", "server TCP address")
	fs.IntVar(&o.ClientID, "id", 0, "client id in [0, clients)")
	o.Config.BindFlags(fs)

	fs.IntVar(&o.MaxRetries, "max-retries", 0, "reconnection attempts after a network fault (0 = default 5, negative disables)")
	fs.DurationVar(&o.BaseBackoff, "base-backoff", 0, "first reconnection delay, doubled per failure with jitter (0 = default 100ms)")
	fs.StringVar(&o.Job, "job", "", "federation job name when the server runs in multi-tenant service mode (empty is fine against single-job servers)")
	fs.StringVar(&o.PrivateCheckpointPath, "private-checkpoint", "", "file persisting the DINAR private-layer store after every round; restarting with the same path restores the personalization state")
	return fs
}

func run(args []string) error {
	var opts dinar.ClientOptions
	if err := flags(&opts).Parse(args); err != nil {
		return err
	}
	opts.Logf = func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("dinar-client %d: joining %s\n", opts.ClientID, opts.Addr)
	res, err := dinar.RunMiddlewareClient(ctx, opts)
	if err != nil {
		return err
	}
	fmt.Printf("dinar-client %d: done; personalized model accuracy %.1f%%\n", opts.ClientID, res.Accuracy*100)
	return nil
}
