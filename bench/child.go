package main

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

// env locates everything a run touches on disk: the repo root the
// measured programs are built from, the directory the binaries go to,
// and the scratch directory for plans, address files and data dirs.
// All of it is inside the checkout.
type env struct {
	root string // directory holding the module "bips"
	bin  string // built binaries
	tmp  string // per-process scratch, removed at exit
}

// findRoot walks up from dir to the directory whose go.mod declares
// module bips.
func findRoot(dir string) (string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		raw, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil && bytes.HasPrefix(raw, []byte("module bips\n")) {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no go.mod of module bips at or above %s", dir)
		}
	}
}

// newEnv prepares the directories under <root>/.bench_build.
func newEnv() (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, err := findRoot(wd)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(out, "bin")}
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(out, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) cleanup() { _ = os.RemoveAll(e.tmp) }

// build compiles the two measured programs from the checkout's source
// and returns the wall time — reported as bench.build_s, never inside
// setup_s.
func (e *env) build() (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator),
		"./cmd/bips-server", "./cmd/bips-experiment")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return time.Since(start), nil
}

// children tracks every process the harness started so that any exit
// path — error, panic, signal — can stop and reap them all.
var children struct {
	sync.Mutex
	live map[*child]bool
}

// killChildren stops and reaps every live child.
func killChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// liveChildren reports how many started children have not been reaped.
func liveChildren() int {
	children.Lock()
	defer children.Unlock()
	return len(children.live)
}

// child is one measured process.
type child struct {
	cmd    *exec.Cmd
	stderr *bytes.Buffer
	stdout *bytes.Buffer
	waited chan struct{}
	err    error
}

// startChild runs bin with args; its output is captured in memory.
func startChild(bin string, args ...string) (*child, error) {
	c := &child{
		cmd:    exec.Command(bin, args...),
		stderr: new(bytes.Buffer),
		stdout: new(bytes.Buffer),
		waited: make(chan struct{}),
	}
	c.cmd.Stderr = c.stderr
	c.cmd.Stdout = c.stdout
	// A harness that dies without running its exit path still takes
	// its children with it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]bool)
	}
	children.live[c] = true
	children.Unlock()
	go func() {
		c.err = c.cmd.Wait()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		close(c.waited)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill stops the child at once and waits until it is reaped.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.waited
}

// terminate asks for a graceful shutdown (SIGTERM: the server drains
// and writes its final checkpoint) and waits for the exit; a child that
// ignores it for limit is killed and reported.
func (c *child) terminate(limit time.Duration) error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.waited:
		if c.err != nil {
			return fmt.Errorf("child exit: %w\n%s", c.err, tail(c.stderr.String(), 10))
		}
		return nil
	case <-time.After(limit):
		c.kill()
		return fmt.Errorf("child ignored SIGTERM for %s\n%s", limit, tail(c.stderr.String(), 10))
	}
}

// wait blocks until the child exits by itself.
func (c *child) wait() error {
	<-c.waited
	if c.err != nil {
		return fmt.Errorf("%w\n%s", c.err, tail(c.stderr.String(), 10))
	}
	return nil
}

// cpuTime is the reaped child's user+system CPU time.
func (c *child) cpuTime() time.Duration {
	ps := c.cmd.ProcessState
	if ps == nil {
		return 0
	}
	return ps.UserTime() + ps.SystemTime()
}

func tail(s string, lines int) string {
	all := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat's CPU
// fields; it is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPU reads a live process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// the numbered fields resume after the last ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat CPU fields")
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procPeakRSS reads a live process's high-water resident set (VmHWM).
func procPeakRSS(pid int) (mb float64, err error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				break
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU is the harness's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
