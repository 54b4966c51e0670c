package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time
// in 1/100 s on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// requestTimeout bounds every HTTP request the harness sends; a request
// that exceeds it counts as failed.
const requestTimeout = 5 * time.Second

// environment is recorded in every result and trace file.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
}

func currentEnv(root string) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    numClients(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     "unknown",
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// numClients is the closed loop's connection count: min(2, nproc).
func numClients() int { return min(2, runtime.NumCPU()) }

// harness owns everything a run leaves on disk or in the process table:
// the built server binary, one temporary directory under bench/out, and
// the server children, all of which close() removes.
type harness struct {
	out    string // bench/out, the only directory the harness writes
	tmp    string // per-run scratch under out, removed on close
	binary string // built cmd/coskq-server

	mu    sync.Mutex
	procs map[*serverProc]bool
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory: run from inside the repository")
		}
		dir = parent
	}
}

// newHarness builds cmd/coskq-server and prepares bench/out. A signal
// handler makes an interrupted run clean up like a finished one.
func newHarness(root string) (*harness, error) {
	h := &harness{out: filepath.Join(root, "bench", "out"), procs: map[*serverProc]bool{}}
	if err := os.MkdirAll(filepath.Join(h.out, "bin"), 0o755); err != nil {
		return nil, err
	}
	h.binary = filepath.Join(h.out, "bin", "coskq-server")
	build := exec.Command("go", "build", "-o", h.binary, "./cmd/coskq-server")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cmd/coskq-server: %w\n%s", err, out)
	}
	tmp, err := os.MkdirTemp(h.out, "run-")
	if err != nil {
		return nil, err
	}
	h.tmp = tmp
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-sig
		h.close()
		os.Exit(130)
	}()
	return h, nil
}

// close kills every server child still running and removes the run's
// scratch directory. Safe to call more than once.
func (h *harness) close() {
	h.mu.Lock()
	procs := h.procs
	h.procs = map[*serverProc]bool{}
	h.mu.Unlock()
	for p := range procs {
		p.kill()
	}
	if h.tmp != "" {
		os.RemoveAll(h.tmp)
	}
}

// serverProc is one running coskq-server child.
type serverProc struct {
	h    *harness
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  string // stderr capture
	done chan struct{}
}

// start launches the server on gob with the workload's flags and waits
// for the first 200 from /healthz. The returned duration is the cold
// start a user sees: exec to ready.
func (h *harness) start(w *workload, gob string) (*serverProc, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()

	logPath := filepath.Join(h.tmp, "server.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close()
	args := append([]string{"-data", gob, "-addr", addr}, w.flags()...)
	cmd := exec.Command(h.binary, args...)
	cmd.Stderr = logFile
	// Own process group plus a parent-death signal: the child dies with
	// the harness even when the harness is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p := &serverProc{h: h, cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan struct{})}

	// Pdeathsig fires when the forking *thread* exits, so the goroutine
	// that starts the child keeps its thread until the child has ended.
	began := time.Now()
	started := make(chan error)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		err := cmd.Start()
		started <- err
		if err == nil {
			cmd.Wait()
			close(p.done)
		}
	}()
	if err := <-started; err != nil {
		return nil, 0, err
	}
	h.mu.Lock()
	h.procs[p] = true
	h.mu.Unlock()

	probe := &http.Client{Timeout: time.Second}
	for {
		if code, _, err := get(probe, p.base+"/healthz"); err == nil && code == http.StatusOK {
			return p, time.Since(began), nil
		}
		select {
		case <-p.done:
			err := fmt.Errorf("coskq-server exited during start-up:\n%s", p.logTail())
			p.stop()
			return nil, 0, err
		default:
		}
		if time.Since(began) > 60*time.Second {
			p.stop()
			return nil, 0, errors.New("coskq-server not ready after 60s")
		}
		time.Sleep(time.Millisecond)
	}
}

func (p *serverProc) kill() {
	// Negative pid: the whole process group.
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
}

// stop kills the server and waits until it has ended.
func (p *serverProc) stop() {
	p.h.mu.Lock()
	delete(p.h.procs, p)
	p.h.mu.Unlock()
	p.kill()
}

func (p *serverProc) logTail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpu returns the server's cumulative user+system CPU time.
func (p *serverProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, so 11 and 12 after ")".
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMiB returns the server's resident-set high-water mark.
func (p *serverProc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU returns the harness's own cumulative user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// get issues one bounded GET and returns the status and whole body.
func get(c *http.Client, url string) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return roundTrip(c, req)
}

func roundTrip(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// scrape reads the server's /metrics page into series → value. Series
// keep their label text, e.g. `coskq_http_requests_total{path="/query",status="200"}`.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	code, body, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}
