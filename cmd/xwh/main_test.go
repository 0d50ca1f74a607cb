package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cloud/ec2"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xmark"
)

// runAsXWH, when set in the environment, makes the test binary run main
// instead of the tests, so a test can start the daemon as a real process.
const runAsXWH = "XWH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsXWH) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The query daemon end to end as a process: it binds an ephemeral port,
// answers every query of a concurrent burst, counts them in /metrics, and
// on SIGTERM drains and exits 0.
func TestServeSmoke(t *testing.T) {
	d := startDaemon(t, "serve", "-corpus", "paintings", "-addr", "127.0.0.1:0")
	queries := workload.Paintings()
	d.burst(t, 40, func(i int) (*http.Request, error) {
		return queryRequest(d.base, queries[i%len(queries)].Text)
	})
	d.checkAdmitted(t)
	d.stop(t)
}

// The mutable daemon under a mixed burst: every 3rd request writes a
// document (every 4th write a DELETE, the others a PUT), every request is
// answered 200, and SIGTERM drains it to exit 0.
func TestMutableServeSmoke(t *testing.T) {
	const docs = 24
	d := startDaemon(t, "serve", "-mutable", "-docs", fmt.Sprint(docs), "-addr", "127.0.0.1:0")
	cfg := xmark.DefaultConfig(docs)
	queries := workload.XMark()
	d.burst(t, 48, func(i int) (*http.Request, error) {
		n := i + 1
		if n%3 != 0 {
			return queryRequest(d.base, queries[i%len(queries)].Text)
		}
		writes := n / 3
		doc := xmark.GenerateDoc(cfg, (writes-1)%docs)
		target := d.base + "/document?uri=" + url.QueryEscape(doc.URI)
		if writes%4 == 0 {
			return http.NewRequest(http.MethodDelete, target, nil)
		}
		return http.NewRequest(http.MethodPut, target, bytes.NewReader(doc.Data))
	})
	d.checkAdmitted(t)
	d.stop(t)
}

// With the default -serve-workers 0 the daemon launches one query processor
// per CPU and runs as many queries at once, and its banner says so.
func TestServeDefaultWorkersMatchProcessors(t *testing.T) {
	wh, err := core.New(core.Config{Strategy: index.TwoLUPI})
	if err != nil {
		t.Fatal(err)
	}
	s, backend, err := newServer(wh, ec2.XL, serveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if got := s.Limits().Workers; got != runtime.NumCPU() {
		t.Errorf("serve slots = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
	want := fmt.Sprintf("(%d query processors,", s.Limits().Workers)
	if b := banner("127.0.0.1:8080", s, backend); !strings.Contains(b, want) {
		t.Errorf("banner %q does not announce %q", b, want)
	}
}

// Without -mutable the warehouse is append-only: xwh refuses -update,
// -remove and -obs-smoke (whose write walk removes documents) at flag
// parsing, exit status 2, before it generates, loads or indexes a document.
func TestWriteFlagsNeedMutable(t *testing.T) {
	for _, args := range [][]string{
		{"-docs", "4", "-update", "xmark-000001.xml=missing.xml"},
		{"-docs", "4", "-remove", "xmark-000001.xml"},
		{"-docs", "4", "-obs-smoke"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runAsXWH+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("xwh %v: %v, want exit status 2\n%s", args, err, out)
		}
		if want := args[2] + " needs -mutable"; !strings.Contains(string(out), want) {
			t.Errorf("xwh %v does not say %q:\n%s", args, want, out)
		}
		if strings.Contains(string(out), "indexed") {
			t.Errorf("xwh %v indexed before refusing:\n%s", args, out)
		}
	}
}

// daemon is a running `xwh serve` child process.
type daemon struct {
	proc   *os.Process
	exited chan error // the child's exit, once
	out    *lineWatch
	base   string // http://host:port
}

// startDaemon starts the test binary as xwh with args and waits until it
// announces the address it serves on.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	out := &lineWatch{prefix: "serving queries on http://", found: make(chan string, 1)}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsXWH+"=1")
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{proc: cmd.Process, exited: make(chan error, 1), out: out}
	go func() { d.exited <- cmd.Wait() }()
	t.Cleanup(func() { d.proc.Kill() }) // a no-op once it has exited
	select {
	case rest := <-out.found:
		addr, _, _ := strings.Cut(rest, "/")
		d.base = "http://" + addr
	case err := <-d.exited:
		t.Fatalf("xwh exited before serving (%v):\n%s", err, out)
	case <-time.After(2 * time.Minute):
		t.Fatalf("xwh did not start serving:\n%s", out)
	}
	return d
}

// burst sends n requests, request(i) for i in [0, n), from four concurrent
// clients and fails the test for every answer that is not 200.
func (d *daemon) burst(t *testing.T, n int, request func(i int) (*http.Request, error)) {
	t.Helper()
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs <- send(request(i))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// send issues one request and reports any answer but 200 as an error.
func send(req *http.Request, err error) error {
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL, resp.StatusCode, body)
	}
	return err
}

// queryRequest is a POST /query of text through the index.
func queryRequest(base, text string) (*http.Request, error) {
	body, err := json.Marshal(map[string]any{"query": text, "useIndex": true})
	if err != nil {
		return nil, err
	}
	return http.NewRequest(http.MethodPost, base+"/query", bytes.NewReader(body))
}

// checkAdmitted scrapes /metrics: the exposition must parse and count the
// burst's queries as admitted.
func (d *daemon) checkAdmitted(t *testing.T) {
	t.Helper()
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	for _, s := range samples {
		if s.Name == "xwh_serve_admitted_total" && s.Value > 0 {
			return
		}
	}
	t.Error("xwh_serve_admitted_total missing or zero in /metrics")
}

// stop sends SIGTERM and requires a drained exit with status 0.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.proc.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			t.Fatalf("xwh exited with %v after SIGTERM, want status 0:\n%s", err, d.out)
		}
	case <-time.After(time.Minute):
		t.Fatalf("xwh did not exit within a minute of SIGTERM:\n%s", d.out)
	}
	if !strings.Contains(d.out.String(), "drained; bye") {
		t.Fatalf("xwh exited without draining:\n%s", d.out)
	}
}

// lineWatch collects a child's output and hands over, once, the rest of the
// first complete line that contains prefix.
type lineWatch struct {
	prefix string
	found  chan string // buffered, capacity 1

	mu   sync.Mutex
	buf  bytes.Buffer
	seen bool
}

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.seen {
		s := w.buf.String()
		if i := strings.Index(s, w.prefix); i >= 0 {
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				w.seen = true
				w.found <- s[i+len(w.prefix) : i+j]
			}
		}
	}
	return len(p), nil
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}
