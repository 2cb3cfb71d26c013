package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot finds the checkout the benchmark measures: the nearest parent
// of the working directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", fmt.Errorf("find repository root: %w", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("find repository root: no BENCHMARK.json in any parent directory")
		}
		dir = parent
	}
}

// goBuild builds one main package into the checkout's .bench_build
// directory and returns the binary's path. The go tool decides whether
// anything has to be rebuilt.
func goBuild(ctx context.Context, root, moduleDir, pkg, name string) (string, error) {
	out := filepath.Join(root, ".bench_build", name)
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = moduleDir
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build %s: %w", pkg, err)
	}
	return out, nil
}

// server is one running gridmind-server process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// oneCPU is set in the environment of the server (and of the layer probe):
// the Go runtime then runs one goroutine at a time, so sweep workers and
// the garbage collector take turns with the ask instead of running beside
// it. With the single closed-loop client that keeps a run to one busy
// thread. The guest has two CPUs, but two threads do not reliably get both:
// with two busy threads the acceptance check read spreads of 25-43% on
// every such workload and passed the one workload that keeps one thread
// busy at a time (README, "Noise control"). What a run then cannot show is
// a gain from running in parallel; it shows the work an ask takes.
const oneCPU = "GOMAXPROCS=1"

// startServer spawns the server and waits until GET /cases answers, so the
// caller's clock covers process start, listen and the first request.
// -session-ttl 0 switches the idle-expiry janitor off: nothing in a run
// depends on a timer.
func startServer(ctx context.Context, bin string, extra []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-session-ttl", "0"}, extra...)
	cmd := exec.Command(bin, args...)
	// The server logs boot and shutdown only; keep them out of the report.
	cmd.Stdout, cmd.Stderr = nil, nil
	cmd.Env = append(os.Environ(), oneCPU)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/cases")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("start server: exited before answering: %v", err)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("start server: /cases did not answer within 30s")
		}
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks the server to drain and waits for the process to end; a
// server that ignores SIGTERM for 10 s is killed.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// procCPUMillis returns the CPU time the process has used so far. It sums
// the run time of every thread from /proc/<pid>/task/*/schedstat, which
// counts nanoseconds; where the kernel keeps no schedstat it falls back to
// utime+stime of /proc/<pid>/stat, which counts 10 ms ticks.
func procCPUMillis(pid int) (float64, error) {
	files, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid)) // the pattern is well-formed
	var ns float64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: bad run time %q", f, fields[0])
		}
		ns += v
	}
	if ns > 0 {
		return ns / 1e6, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	const msPerTick = 10 // USER_HZ is 100 on Linux
	return (ut + st) * msPerTick, nil
}

// procPeakRSSMB returns the process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("/proc/%d/status: bad VmHWM", pid)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
