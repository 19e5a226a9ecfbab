package bench

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// FindRoot walks up from the working directory to the pathsep
// repository root: the directory whose go.mod declares module pathsep.
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			bytes.HasPrefix(b, []byte("module pathsep\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no pathsep go.mod above the working directory")
		}
		dir = parent
	}
}

// BuildDaemon compiles the repository's cmd/pathsepd into dir and
// returns the binary's path.
func BuildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "pathsepd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pathsepd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/pathsepd: %v\n%s", err, out)
	}
	return bin, nil
}

// Daemon is one running pathsepd process.
type Daemon struct {
	Addr   string
	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, readable after exited
}

// StartDaemon runs bin serving image on an ephemeral loopback port and
// returns once GET /healthz answers 200.
func StartDaemon(bin, image string) (*Daemon, error) {
	ready := &addrWriter{found: make(chan string, 1)}
	cmd := exec.Command(bin, "-image", image, "-listen", "127.0.0.1:0")
	cmd.Stdout = ready
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start pathsepd: %w", err)
	}
	d := &Daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.Addr = <-ready.found:
	case <-d.exited:
		return nil, fmt.Errorf("bench: pathsepd exited before serving: %v", d.err)
	case <-time.After(60 * time.Second):
		d.Stop()
		return nil, errors.New("bench: pathsepd did not report its address within 60s")
	}
	c := NewConn(d.Addr)
	defer c.Close()
	req := getRequest("/healthz")
	for deadline := time.Now().Add(10 * time.Second); ; {
		if status, _, err := c.Do(req, nil); err == nil && status == 200 {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.Stop()
			return nil, errors.New("bench: pathsepd /healthz not 200 within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// Stop sends SIGTERM, waits up to 10s for the drain, then kills the
// process; it returns once the process has exited.
func (d *Daemon) Stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// CPU returns the daemon's user+system CPU time so far, read from
// /proc/<pid>/stat (clock ticks of 10ms).
func (d *Daemon) CPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("bench: malformed /proc stat %q", b)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: malformed /proc stat %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: malformed /proc stat %q", b)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// PeakRSSMB returns the daemon's resident-set high-water mark (VmHWM)
// in MB.
func (d *Daemon) PeakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: malformed VmHWM %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}

// addrWriter receives the daemon's stdout and reports the address from
// its "serving on <addr>" line.
type addrWriter struct {
	mu    sync.Mutex
	buf   []byte
	found chan string
	sent  bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		line, rest, ok := bytes.Cut(w.buf, []byte("\n"))
		if !ok {
			return len(p), nil
		}
		w.buf = rest
		if _, addr, ok := strings.Cut(string(line), "serving on "); ok {
			w.sent = true
			w.found <- strings.TrimSpace(addr)
			return len(p), nil
		}
	}
}
