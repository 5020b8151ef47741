package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running `feo serve` process.
type server struct {
	cmd  *exec.Cmd
	base string
	dir  string
	log  *bytes.Buffer
	done chan error
}

// readyQuery is a constant-pattern ASK: it touches no data, so the first
// 200 it gets marks the end of boot, not the cost of a query.
const readyQuery = `ASK { <urn:feobench:ready> <urn:feobench:ready> <urn:feobench:ready> }`

// boot spawns `feo serve` on dir and waits for its first 200 answer,
// returning the elapsed time from spawn.
func boot(feoBin, dir string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: "http://127.0.0.1:" + strconv.Itoa(port), dir: dir,
		log: new(bytes.Buffer), done: make(chan error, 1)}
	s.cmd = exec.Command(feoBin, "serve", "-data", "none", "-datadir", dir, "-sync", "commit",
		"-addr", "127.0.0.1:"+strconv.Itoa(port))
	s.cmd.Stdout = s.log
	s.cmd.Stderr = s.log
	// Should the benchmark die, the server dies with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting feo serve: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()

	ready := s.base + "/sparql?query=" + url.QueryEscape(readyQuery)
	probe := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("feo serve exited during boot (%v): %s", err, tail(s.log))
		default:
		}
		resp, err := probe.Get(ready)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return nil, 0, fmt.Errorf("feo serve not ready after 120s: %s", tail(s.log))
}

// stop shuts the server down gracefully and waits for it to exit.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("feo serve: %v: %s", err, tail(s.log))
		}
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("feo serve did not stop within 30s")
	}
}

// kill is the crash path: SIGKILL, then wait until the process is gone.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // an already-exited process is reaped below
	<-s.done
	s.done <- nil
}

// peakRSSMB reads the server's VmHWM.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// cpuSeconds reads the server's user plus system CPU time. /proc reports
// it in USER_HZ ticks, which Linux fixes at 100 per second.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return (utime + stime) / 100, nil
}

// hostSteal reads the host's cumulative steal and total CPU ticks.
func hostSteal() (steal, total float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, err
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total, nil
}

// scrape reads the /metrics gauges and counters the benchmark uses,
// summing series that differ only in labels.
func (s *server) scrape(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func tail(b *bytes.Buffer) string {
	s := strings.TrimSpace(b.String())
	if len(s) > 600 {
		s = "..." + s[len(s)-600:]
	}
	return s
}

// walBytes sums the sizes of the WAL files in a data directory.
func walBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			n += info.Size()
		}
	}
	return n, nil
}
