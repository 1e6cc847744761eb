package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"joinopt/internal/qfile"
	"joinopt/internal/serve"
	"joinopt/internal/workload"
)

// runMainEnv, when set to "1", makes the test binary run the daemon's
// main() instead of the tests: the process tests below start real ljqd
// processes from the test binary itself, without a separate go build.
const runMainEnv = "LJQD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syncBuffer collects a child's stderr while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one ljqd process started from the test binary.
type daemon struct {
	cmd    *exec.Cmd
	stderr *syncBuffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited closes
}

// daemonCommand builds (but does not start) an ljqd process.
func daemonCommand(args ...string) (*exec.Cmd, *syncBuffer) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stderr := &syncBuffer{}
	cmd.Stderr = stderr
	return cmd, stderr
}

// startDaemon starts ljqd with args and waits until base answers
// /healthz. At test cleanup the daemon is drained with SIGTERM and
// must exit 0.
func startDaemon(t *testing.T, base string, args ...string) *daemon {
	t.Helper()
	cmd, stderr := daemonCommand(args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: stderr, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() { d.stop(t) })
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		select {
		case <-d.exited:
			t.Fatalf("ljqd %v exited before serving: %v\n%s", args, d.err, stderr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("ljqd %v never answered /healthz:\n%s", args, stderr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, killing it if the drain hangs.
func (d *daemon) stop(t *testing.T) {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		if d.err != nil {
			t.Errorf("ljqd drain: %v\n%s", d.err, d.stderr)
		}
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		t.Errorf("ljqd did not drain on SIGTERM:\n%s", d.stderr)
	}
}

// freeAddr reserves a loopback port and releases it for a daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

func optimize(t *testing.T, base string, body []byte) *serve.OptimizeResponse {
	t.Helper()
	resp, err := http.Post(base+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s/optimize: status %d", base, resp.StatusCode)
	}
	var out serve.OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestWarmJoinServesPeerPlan: the cluster claim README makes of the
// shipped binary. A peer started with -peers warm-starts from a running
// member's snapshot before it listens, so its first answer for a shape
// the member already planned is a cache hit with the member's plan.
func TestWarmJoinServesPeerPlan(t *testing.T) {
	addrA, addrB := freeAddr(t), freeAddr(t)
	urlA, urlB := "http://"+addrA, "http://"+addrB
	peers := urlA + "," + urlB

	startDaemon(t, urlA, "-addr", addrA, "-advertise", urlA, "-peers", peers, "-warm-timeout", "2s")
	var body bytes.Buffer
	if err := qfile.Write(&body, workload.Default().Generate(12, rand.New(rand.NewSource(5)))); err != nil {
		t.Fatal(err)
	}
	// The first answer is the greedy tier; wait for the background
	// upgrade so the plan A holds (and ships) is final.
	want := optimize(t, urlA, body.Bytes())
	for deadline := time.Now().Add(30 * time.Second); want.Tier != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("A never upgraded the plan to tier 2: %+v", want)
		}
		time.Sleep(20 * time.Millisecond)
		want = optimize(t, urlA, body.Bytes())
	}

	b := startDaemon(t, urlB, "-addr", addrB, "-advertise", urlB, "-peers", peers)
	got := optimize(t, urlB, body.Bytes())
	if !got.CacheHit {
		t.Fatalf("B's first answer was not a cache hit:\n%s", b.stderr)
	}
	if got.TotalCost != want.TotalCost || got.Explain != want.Explain || got.Tier != want.Tier ||
		!reflect.DeepEqual(got.Order, want.Order) {
		t.Fatalf("B served a different plan:\nA: %+v\nB: %+v", want, got)
	}
	if log := b.stderr.String(); !strings.Contains(log, "warm-started 1 plans") || !strings.Contains(log, "from "+urlA) {
		t.Fatalf("B's log lacks the warm start from A:\n%s", log)
	}
}

// TestNonMemberAdvertiseExits: a peer whose -advertise is not in its
// own -peers list refuses to start.
func TestNonMemberAdvertiseExits(t *testing.T) {
	cmd, stderr := daemonCommand("-addr", "127.0.0.1:0",
		"-peers", "http://127.0.0.1:1,http://127.0.0.1:2", "-advertise", "http://127.0.0.1:3")
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("ljqd with a non-member -advertise: err = %v, want a non-zero exit\n%s", err, stderr)
	}
	if !strings.Contains(stderr.String(), "is not listed in -peers") {
		t.Fatalf("stderr lacks the membership refusal:\n%s", stderr)
	}
}
