package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Server lifecycle: build once, spawn on a free loopback port, wait for
// readiness by polling, stop with SIGTERM and expect the clean exit of a
// drained server, SIGKILL after killAfter.  Every live server is registered
// so that a signal or a failing run leaves no orphan.

const (
	readyPoll    = 10 * time.Millisecond
	readyTimeout = 120 * time.Second
	killAfter    = 10 * time.Second
)

// workDir holds everything a run writes: the server binary, temporary corpus
// directories and the run records.  It is inside the checkout and ignored by
// git.
func workDir(root string) string { return filepath.Join(root, ".bench_build") }

// findRoot walks up from the working directory to the repository root, the
// directory that holds cmd/lotusx-server ("go run -C benchmark" starts the
// program in benchmark/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "lotusx-server", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/lotusx-server not found above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/lotusx-server from the checkout's source.
func buildServer(root string) (string, error) {
	bin := filepath.Join(workDir(root), "bin", "lotusx-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lotusx-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building lotusx-server: %v\n%s", err, out)
	}
	return bin, nil
}

type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	exited chan struct{} // closed when the process has been waited for
	err    error         // Wait's result, valid after exited closes
	tmp    string        // removed on stop
	// SetupS is spawn to the first 200 of /api/v1/stats for every dataset.
	SetupS float64
}

var (
	liveMu sync.Mutex
	live   = map[*serverProc]bool{}
)

// stopAll kills every live server; the signal handler and failing runs call
// it so that no server outlives the benchmark.
func stopAll() {
	liveMu.Lock()
	defer liveMu.Unlock()
	for s := range live {
		s.cmd.Process.Kill()
		<-s.exited
		os.RemoveAll(s.tmp)
	}
	live = map[*serverProc]bool{}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer spawns the workload's server and waits until it answers for
// every dataset.
func startServer(root, bin string, w workload, client *http.Client) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(workDir(root), "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(workDir(root), "tmp"), "server-")
	if err != nil {
		return nil, err
	}
	s := &serverProc{base: "http://" + addr, exited: make(chan struct{}), tmp: tmp}
	s.cmd = exec.Command(bin, w.serverArgs(addr, filepath.Join(tmp, "corpus"))...)
	s.cmd.Dir = tmp
	s.cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	liveMu.Lock()
	live[s] = true
	liveMu.Unlock()
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()

	for _, name := range w.datasets() {
		if err := s.waitReady(client, name, start); err != nil {
			s.stop()
			return nil, err
		}
	}
	s.SetupS = time.Since(start).Seconds()
	return s, nil
}

func (s *serverProc) waitReady(client *http.Client, dataset string, start time.Time) error {
	u := s.base + "/api/v1/stats?dataset=" + url.QueryEscape(dataset)
	for time.Since(start) < readyTimeout {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before it was ready: %v\n%s", s.err, s.stderr.String())
		default:
		}
		if resp, err := client.Get(u); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(readyPoll)
	}
	return fmt.Errorf("server not ready for dataset %s after %v\n%s", dataset, readyTimeout, s.stderr.String())
}

// stop TERMs the server and waits for the clean exit of its drain; a server
// that does not exit within killAfter is killed.  Either failure is an error
// with the server's stderr attached.
func (s *serverProc) stop() error {
	liveMu.Lock()
	delete(live, s)
	liveMu.Unlock()
	defer os.RemoveAll(s.tmp)
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(killAfter):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("server did not exit within %v of SIGTERM\n%s", killAfter, s.stderr.String())
	}
	if s.err != nil {
		return fmt.Errorf("server exit: %v\n%s", s.err, s.stderr.String())
	}
	return nil
}

// getJSON decodes a 200 answer of a GET into v.
func getJSON(ctx context.Context, client *http.Client, u string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", u, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// latency is the histogram summary the server's metrics report.
type latency struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"meanMs"`
}

// serverMetrics is the part of /api/v1/metrics the per-layer report reads.
type serverMetrics struct {
	Caches map[string]struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"caches"`
	Ingest *struct {
		Compactions   int64   `json:"compactions"`
		CompactionRun latency `json:"compactionRun"`
	} `json:"ingest"`
	Process struct {
		GCPauseTotalSeconds float64 `json:"gcPauseTotalSeconds"`
	} `json:"process"`
}

func (s *serverProc) metrics(ctx context.Context, client *http.Client) (serverMetrics, error) {
	var m serverMetrics
	err := getJSON(ctx, client, s.base+"/api/v1/metrics", &m)
	return m, err
}

// peakRSSMB reads the server's high-water resident set from /proc.
func (s *serverProc) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
