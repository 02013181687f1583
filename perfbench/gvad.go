package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one gvad process under test, with its own state directory.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:port
	exited  chan struct{} // closed once cmd.Wait has returned
	waitErr error
	logTail *tailBuffer
}

// fsyncInterval is the session WAL flush period gvad runs with. At gvad's
// default of 100 ms, 16 sessions taking 2,000 appends a second put an fsync
// in the path of one append in 12, and append throughput would follow the
// shared disk's fsync latency; one second keeps interval durability with a
// tenth of the fsyncs.
const fsyncInterval = time.Second

// startDaemon spawns gvad with default flags plus a private state
// directory and interval fsync, and returns once it has logged its
// listening address.
func startDaemon(gvadPath, stateDir string) (*daemon, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(gvadPath, "-addr", "127.0.0.1:0", "-state-dir", stateDir,
		"-fsync", "interval", "-fsync-interval", fsyncInterval.String())
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gvad: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), logTail: &tailBuffer{}}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.logTail.add(line)
			if _, after, ok := strings.Cut(line, "listening on "); ok && !sent {
				a, _, _ := strings.Cut(after, " ")
				addr <- a
				sent = true
			}
		}
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("gvad exited before listening: %v; log: %s", d.waitErr, d.logTail)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("gvad did not start listening within 30s; log: %s", d.logTail)
	}
}

// stop sends SIGTERM, waits for the drain, and escalates to SIGKILL if
// gvad has not exited within 20 seconds. It returns once the process has
// been reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuTime is gvad's user+system CPU time so far, from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s
	// (USER_HZ, which Linux fixes at 100 for user space).
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS is gvad's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// promValues parses the unlabelled samples of a Prometheus text page.
func promValues(page []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(page), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// scrape fetches /metrics and returns its unlabelled samples.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return promValues(body), nil
}

// newClient returns an HTTP client holding one keep-alive connection, the
// unit of concurrency in the closed-loop load.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and returns the status and the whole body.
func do(c *http.Client, method, url string, body []byte, header map[string]string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// tailBuffer keeps the last lines gvad logged, for error reports.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}
