package main

import (
	"flag"
	"fmt"
	"reflect"
	"testing"

	dinar "repro"
)

// TestFlags pins every flag's name, type and default: an operator's command
// line keeps meaning what it meant.
func TestFlags(t *testing.T) {
	want := map[string]string{
		"addr":               "string 127.0.0.1:7070",
		"id":                 "int 0",
		"dataset":            "string purchase100",
		"defense":            "string dinar",
		"clients":            "int 3",
		"rounds":             "int 5",
		"seed":               "int64 1",
		"records":            "int 1000",
		"max-retries":        "int 0",
		"base-backoff":       "time.Duration 0s",
		"job":                "string ",
		"private-checkpoint": "string ",
	}
	got := map[string]string{}
	flags(new(dinar.ClientOptions)).VisitAll(func(f *flag.Flag) {
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
