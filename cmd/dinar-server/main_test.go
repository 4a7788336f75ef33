package main

import (
	"flag"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
)

// TestFlags pins every flag's name, type and default: an operator's command
// line keeps meaning what it meant.
func TestFlags(t *testing.T) {
	want := map[string]string{
		"addr":              "string 127.0.0.1:7070",
		"dataset":           "string purchase100",
		"defense":           "string dinar",
		"clients":           "int 3",
		"rounds":            "int 5",
		"seed":              "int64 1",
		"records":           "int 1000",
		"min-clients":       "int 0",
		"round-deadline":    "time.Duration 0s",
		"checkpoint":        "string ",
		"sample-size":       "int 0",
		"sample-seed":       "int64 0",
		"async-staleness":   "int 0",
		"streaming":         "bool false",
		"aggregator":        "string fedavg",
		"max-byzantine":     "int 0",
		"no-screen":         "bool false",
		"clip-norms":        "bool false",
		"quarantine-rounds": "int 0",
		"compress":          "bool false",
		"quantize":          "string none",
		"topk":              "float64 0",
		"delta":             "bool false",
		"quant-seed":        "int64 0",
		"pipeline":          "bool false",
		"admin-addr":        "string ",
		"service":           "bool false",
		"state-dir":         "string ",
		"drain-timeout":     "time.Duration 30s",
	}
	got := map[string]string{}
	flags(new(settings)).VisitAll(func(f *flag.Flag) {
		got[f.Name] = fmt.Sprintf("%T %s", f.Value.(flag.Getter).Get(), f.DefValue)
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant %v", got, want)
	}
}

func TestUnknownFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("accepted an unknown flag")
	}
}

// TestNegativeRoundDeadlineRefused: -round-deadline -1s is an error, not a
// federation without a deadline, and it is reported before the server
// listens — the address here is taken, so a listen would fail differently.
func TestNegativeRoundDeadlineRefused(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	err = run([]string{"-addr", taken.Addr().String(), "-records", "100", "-round-deadline", "-1s"})
	if err == nil || !strings.Contains(err.Error(), "RoundDeadline") {
		t.Fatalf("err = %v, want the negative RoundDeadline refusal", err)
	}
}
