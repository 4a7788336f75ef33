package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// testClient disables keep-alives so idle-connection goroutines don't
// linger past a.Close() and trip the leak guard.
var testClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// TestServeAdmin spins up an admin server on an ephemeral port and checks
// all three endpoint families.
func TestServeAdmin(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	reg := NewRegistry()
	c := reg.NewCounter("admin_test_total", "t")
	c.Add(5)
	want := Health{Status: "running", Round: 2, Rounds: 9, RegisteredClients: 3,
		NumClients: 3, MinClients: 2, CheckpointRound: -1}
	a, err := ServeAdmin("127.0.0.1:0", func() Health { return want }, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	base := fmt.Sprintf("http://%s", a.Addr())

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := testClient.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, "admin_test_total 5") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	code, body, ctype = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	if ctype != "application/json" {
		t.Errorf("/healthz content type %q", ctype)
	}
	got, err := DecodeHealth([]byte(body))
	if err != nil {
		t.Fatalf("/healthz decode: %v", err)
	}
	if got != want {
		t.Errorf("/healthz = %+v, want %+v", got, want)
	}

	if code, _, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, _, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

// TestServeAdminNilDefaults: nil health serves a zero snapshot, and an
// admin port handed no registry serves an empty /metrics — it finds no
// process-global one on its own.
func TestServeAdminNilDefaults(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	Default().Counter("admin_test_process_scoped_total", "t").Inc()
	a, err := ServeAdmin("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := testClient.Get(fmt.Sprintf("http://%s%s", a.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if _, err := DecodeHealth(get("/healthz")); err != nil {
		t.Fatalf("zero health does not decode: %v", err)
	}
	if body := get("/metrics"); len(body) != 0 {
		t.Fatalf("/metrics of an admin port with no registry:\n%s", body)
	}
}
