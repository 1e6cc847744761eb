package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"joinopt/internal/serve"
	"joinopt/internal/wire"
)

// daemon is one running ljqd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logDone chan struct{} // closed when stderr reaches EOF
	tail    []string      // last stderr lines, for error messages
}

// startDaemon launches ljqd and waits until it listens.
func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// Should this process die without stopping the daemon, the kernel
	// kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ljqd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Read stderr to EOF so the daemon never blocks on a full pipe.
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if len(d.tail) == 8 {
				d.tail = d.tail[1:]
			}
			d.tail = append(d.tail, line)
			if _, rest, ok := strings.Cut(line, "serving on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.logDone:
		err := d.cmd.Wait()
		return nil, fmt.Errorf("ljqd exited before listening (%v): %s", err, strings.Join(d.tail, " | "))
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("ljqd did not listen within 30s")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM (killing it after 20s) and waits
// for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.logDone:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill() // the drain hung; Wait below reports it
		<-d.logDone
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("ljqd: %v: %s", err, strings.Join(d.tail, " | "))
	}
	return nil
}

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat counts CPU time
// in 1/100 s on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time of process pid, all threads.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns VmHWM of process pid in MiB.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// session is one keep-alive HTTP connection to the daemon.
type session struct {
	client *http.Client
	base   string
	wire   bool
}

func newSession(addr string, useWire bool) *session {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &session{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: "http://" + addr, wire: useWire}
}

func (s *session) close() { s.client.CloseIdleConnections() }

// optimize posts one pre-encoded query and decodes the plan.
func (s *session) optimize(body []byte) (*reply, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+"/optimize", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if s.wire {
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if s.wire {
		w, err := wire.DecodeResponse(data)
		if err != nil {
			return nil, err
		}
		return &reply{TotalCost: w.TotalCost, Order: w.Order, Names: w.Names, Tier: w.Tier, CacheHit: w.CacheHit}, nil
	}
	var r reply
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// status scrapes GET /statusz.
func (s *session) status() (*serve.StatusResponse, error) {
	resp, err := s.client.Get(s.base + "/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statusz: status %d", resp.StatusCode)
	}
	var st serve.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("statusz: %w", err)
	}
	return &st, nil
}
