package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
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

// supervisor owns everything a run leaves outside its own memory: the
// scratch directory and the payg-server children. close is safe to call
// from any exit path — normal return, error, signal handler, recovered
// panic — and leaves no process and no file behind.
type supervisor struct {
	mu    sync.Mutex
	dir   string
	procs []*proc
	done  bool
}

// newSupervisor creates a scratch directory under parent.
func newSupervisor(parent string) (*supervisor, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, err
	}
	return &supervisor{dir: dir}, nil
}

// close kills every child still running, waits for each, and removes the
// scratch directory.
func (s *supervisor) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return
	}
	s.done = true
	for _, p := range s.procs {
		p.kill()
	}
	os.RemoveAll(s.dir)
}

// path returns a path inside the scratch directory.
func (s *supervisor) path(elem ...string) string {
	return filepath.Join(append([]string{s.dir}, elem...)...)
}

// buildServer compiles cmd/payg-server from the checkout at root into out.
func buildServer(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/payg-server")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building payg-server: %v\n%s", err, b)
	}
	return nil
}

// findRoot walks up from the working directory to the module root, so the
// harness works both from the checkout root (`go run ./bench`) and from its
// own directory (`go test ./bench`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod above the working directory; run from a schemaflow checkout")
		}
		dir = parent
	}
}

// freeAddr reserves a loopback port and releases it for a child to claim.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// proc is one payg-server child.
type proc struct {
	cmd     *exec.Cmd
	base    string // http://host:port, empty for run-to-completion children
	logPath string
	waited  chan struct{}
	waitErr error
}

// start launches bin with args, stderr and stdout appended to a log file in
// the scratch directory. The child is registered for cleanup before start
// returns and, on Linux, dies with the harness even if the harness is
// SIGKILLed.
func (s *supervisor) start(name, bin string, args ...string) (*proc, error) {
	logPath := s.path(name + ".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	dieWithParent(cmd)
	p := &proc{cmd: cmd, logPath: logPath, waited: make(chan struct{})}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return nil, errors.New("bench: supervisor already closed")
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.waited)
	}()
	s.procs = append(s.procs, p)
	return p, nil
}

// startServer launches a listening payg-server and returns once /healthz
// answers 200; the returned duration is launch → healthy.
func (s *supervisor) startServer(name, bin string, args ...string) (*proc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	p, err := s.start(name, bin, append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, 0, err
	}
	p.base = "http://" + addr
	if err := p.waitHealthy(120 * time.Second); err != nil {
		return nil, 0, err
	}
	return p, time.Since(t0), nil
}

// waitHealthy polls /healthz until it answers 200, the child exits, or the
// timeout passes.
func (p *proc) waitHealthy(timeout time.Duration) error {
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.waited:
			return fmt.Errorf("%s exited before becoming healthy: %v\n%s", p.cmd.Path, p.waitErr, p.logTail())
		default:
		}
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v\n%s", p.base, timeout, p.logTail())
}

// wait blocks until a run-to-completion child (the checkpoint splitter)
// exits, and reports a non-zero exit with its log.
func (p *proc) wait() error {
	<-p.waited
	if p.waitErr != nil {
		return fmt.Errorf("%s: %v\n%s", strings.Join(p.cmd.Args, " "), p.waitErr, p.logTail())
	}
	return nil
}

// peakRSSMB reads the child's high-water resident set (VmHWM) in MB. It
// must be called before stop: /proc/<pid> disappears with the process.
func (p *proc) peakRSSMB() (float64, error) {
	return vmHWM(p.cmd.Process.Pid)
}

// vmHWM parses VmHWM out of /proc/<pid>/status (Linux only).
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuSeconds reads the CPU time (user + system, all threads, living and
// exited) a process has consumed so far from /proc/<pid>/stat (Linux only).
// Unlike a wall-clock latency it does not grow while the process waits for
// a CPU the host gave to someone else, or for a halted vCPU to wake.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("reading CPU time: %w", err)
	}
	// Fields are counted after the parenthesised command name, which may
	// itself hold spaces: state is the first, utime and stime the 12th and
	// 13th, in clock ticks of 1/100 s (USER_HZ, a constant of the Linux ABI).
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the command name", pid, len(f))
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: utime %q stime %q", pid, f[11], f[12])
	}
	return (utime + stime) / 100, nil
}

// stop asks the child to drain (SIGTERM), and kills it if it has not
// exited within five seconds.
func (p *proc) stop() {
	select {
	case <-p.waited:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.waited:
	case <-time.After(5 * time.Second):
		p.kill()
	}
}

// kill delivers SIGKILL and waits for the child to be reaped.
func (p *proc) kill() {
	select {
	case <-p.waited:
		return
	default:
	}
	p.cmd.Process.Kill()
	<-p.waited
}

func (p *proc) logTail() string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return ""
	}
	if len(b) > 4096 {
		b = b[len(b)-4096:]
	}
	return "--- " + p.logPath + " (tail) ---\n" + string(b)
}

// getJSON GETs url and decodes the 200 body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
