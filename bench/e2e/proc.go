package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running ingestd. Its stdout is read line by line by
// whoever holds it; its stderr is kept for the error report.
type proc struct {
	cmd      *exec.Cmd
	out      *bufio.Reader
	stderr   bytes.Buffer
	addr     string  // address from the "listening on tcp" line
	startupS float64 // exec -> "listening" line
	// restoredAt is the bin a warm start resumed from (-1 on a cold
	// start), from the "model restored ... at bin N" line.
	restoredAt int64
	// cpuAtListen is the process's CPU time when it started listening:
	// everything before is set-up, everything after is stream work.
	cpuAtListen time.Duration
}

// startIngestd executes the binary and reads its output up to the
// "listening on tcp" line; the time between the two is the start-up
// time an operator waits through.
func startIngestd(bin string, args []string, env ...string) (*proc, error) {
	p := &proc{cmd: exec.Command(bin, args...), restoredAt: -1}
	p.cmd.Env = append(os.Environ(), env...)
	p.cmd.Stderr = &p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.out = bufio.NewReaderSize(stdout, 1<<16)
	begin := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	for {
		line, err := p.out.ReadSlice('\n')
		if err != nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
			return nil, fmt.Errorf("ingestd exited before listening: %v: %s", err, p.stderr.String())
		}
		if at, ok := parseRestored(line); ok {
			p.restoredAt = at
		}
		if addr, ok := parseListening(line); ok {
			p.startupS = time.Since(begin).Seconds()
			p.addr = addr
			break
		}
	}
	p.cpuAtListen, err = procCPU(p.cmd.Process.Pid)
	if err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// exitInfo is what the kernel reports about a finished process.
type exitInfo struct {
	cpu         time.Duration // user+sys over the whole life
	ctxSwitches int64
}

// wait reaps the process after its stdout reached EOF. A non-zero exit
// or anything on stderr is an error: ingestd reports refused streams and
// deferred refit failures there.
func (p *proc) wait() (exitInfo, error) {
	err := p.cmd.Wait()
	if err != nil {
		return exitInfo{}, fmt.Errorf("ingestd: %v: %s", err, p.stderr.String())
	}
	if p.stderr.Len() > 0 {
		return exitInfo{}, fmt.Errorf("ingestd wrote to stderr: %s", p.stderr.String())
	}
	st := p.cmd.ProcessState
	info := exitInfo{cpu: st.UserTime() + st.SystemTime()}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		info.ctxSwitches = ru.Nvcsw + ru.Nivcsw
	}
	return info, nil
}

// terminate stops a process that was only launched to time its start-up
// and waits until it has exited. ingestd installs its signal handler just
// after it prints the listening line, so a prompt SIGTERM may find the
// default action still in place; dying of that signal is as good as
// draining here, where no stream was ever sent.
func (p *proc) terminate() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, p.out); err != nil {
		return err
	}
	_, err := p.wait()
	if ws, ok := p.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return nil
	}
	return err
}

func (p *proc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// peakRSSMiB is the live process's resident-set high-water mark, VmHWM
// of /proc/<pid>/status. The ru_maxrss that wait4 reports cannot stand
// in for it: the kernel seeds a child's ru_maxrss at exec with the peak
// of the address space it was forked from, so it is never below the
// benchmark's own footprint. VmHWM is gone once the process has exited,
// so callers read it while they still hold the connection open.
func (p *proc) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

// parseVmHWM reads the "VmHWM:  123456 kB" line of a /proc status file.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 2 && fields[1] == "kB" {
				if kb, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
					return float64(kb) / 1024, nil
				}
			}
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc status")
}

// procCPU is the CPU time (user+sys) a live process has used, summed
// over its threads from /proc/<pid>/task/*/schedstat, which counts
// nanoseconds on the CPU. Where the kernel has no schedstat it falls
// back to the clock-tick counters of /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	total, found := int64(0), false
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", path, err)
		}
		total += ns
		found = true
	}
	if found {
		return time.Duration(total), nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseStatCPU reads utime+stime (fields 14 and 15, in clock ticks of
// 10 ms) from a /proc/<pid>/stat line. The command name in field 2 may
// hold spaces, so fields are counted from the closing parenthesis.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	fields := strings.Fields(stat[i+1:])
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// The parsers below read the lines cmd/ingestd prints. They work on the
// reader's byte slice and allocate only for what the caller keeps: at
// three million bins a second the alarm lines arrive sixty thousand a
// second, on the same two cores ingestd runs on.

func parseListening(line []byte) (addr string, ok bool) {
	const prefix = "ingestd: listening on tcp "
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return "", false
	}
	return string(bytes.TrimSpace(line[len(prefix):])), true
}

func parseRestored(line []byte) (bin int64, ok bool) {
	if !bytes.HasPrefix(line, []byte("ingestd: ")) || !bytes.Contains(line, []byte(" model restored from ")) {
		return 0, false
	}
	return intAfter(line, " at bin ")
}

// parseAlarm reads "alarm bin N: SPE ..., flow NAME, ... bytes".
func parseAlarm(line []byte) (seq int64, flow []byte, ok bool) {
	const prefix = "alarm bin "
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return 0, nil, false
	}
	seq, ok = intAfter(line, prefix)
	if !ok {
		return 0, nil, false
	}
	flow, ok = fieldAfter(line, ", flow ")
	return seq, flow, ok
}

// incidentLine is one "incident #k open" or "incident #k closed" line.
// end and alarms are set on closed lines only.
type incidentLine struct {
	id         int64
	closed     bool
	what       string // "flow NAME" or "view NAME (unattributed)"
	start, end int64
	alarms     int64
}

func parseIncident(line []byte) (incidentLine, bool) {
	const prefix = "incident #"
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return incidentLine{}, false
	}
	var inc incidentLine
	var ok bool
	if inc.id, ok = intAfter(line, prefix); !ok {
		return incidentLine{}, false
	}
	colon := bytes.Index(line, []byte(": "))
	if colon < 0 {
		return incidentLine{}, false
	}
	state := line[:colon]
	rest := line[colon+2:]
	comma := bytes.IndexByte(rest, ',')
	if comma < 0 {
		return incidentLine{}, false
	}
	inc.what = string(rest[:comma])
	switch {
	case bytes.HasSuffix(state, []byte(" open")):
		inc.start, ok = intAfter(rest, ", start bin ")
	case bytes.HasSuffix(state, []byte(" closed")):
		inc.closed = true
		if inc.start, ok = intAfter(rest, ", bins "); !ok {
			return incidentLine{}, false
		}
		if inc.end, ok = intAfter(rest, ".."); !ok {
			return incidentLine{}, false
		}
		inc.alarms, ok = intBefore(rest, " alarms,")
	default:
		ok = false
	}
	return inc, ok
}

// finalStats is ingestd's last summary line plus the per-view queue
// line and the per-stream line printed before it.
type finalStats struct {
	streams, processed, alarms, refits, dropped, rejected int64
	depthHighWater, enqueued                              int64
	streamEnqueued                                        int64
	seenFinal, seenQueue, seenStream                      bool
}

// parseStats folds one "ingestd: ..." status line into fs and reports
// whether it was the final summary, after which ingestd prints nothing
// that matters to a per-alarm run.
func (fs *finalStats) parseStats(line []byte) (final bool) {
	if !bytes.HasPrefix(line, []byte("ingestd: ")) {
		return false
	}
	switch {
	case bytes.Contains(line, []byte(" bins processed, ")):
		var ok [6]bool
		fs.streams, ok[0] = intAfter(line, "ingestd: ")
		fs.processed, ok[1] = intBefore(line, " bins processed,")
		fs.alarms, ok[2] = intBefore(line, " alarms,")
		fs.refits, ok[3] = intBefore(line, " refits;")
		fs.dropped, ok[4] = intAfter(line, "; dropped ")
		fs.rejected, ok[5] = intAfter(line, " bins, rejected ")
		fs.seenFinal = ok == [6]bool{true, true, true, true, true, true}
		return fs.seenFinal
	case bytes.Contains(line, []byte(" queue: depth high-water ")):
		var ok [2]bool
		fs.depthHighWater, ok[0] = intAfter(line, " queue: depth high-water ")
		fs.enqueued, ok[1] = intAfter(line, " bins, enqueued ")
		fs.seenQueue = ok[0] && ok[1]
	case bytes.Contains(line, []byte(": stream done (")):
		fs.streamEnqueued, fs.seenStream = intBefore(line, " bins enqueued")
	}
	return false
}

// intAfter parses the decimal integer that follows marker.
func intAfter(line []byte, marker string) (int64, bool) {
	i := bytes.Index(line, []byte(marker))
	if i < 0 {
		return 0, false
	}
	return leadingInt(line[i+len(marker):])
}

// intBefore parses the decimal integer that ends where marker begins.
func intBefore(line []byte, marker string) (int64, bool) {
	end := bytes.Index(line, []byte(marker))
	if end < 0 {
		return 0, false
	}
	begin := end
	for begin > 0 && line[begin-1] >= '0' && line[begin-1] <= '9' {
		begin--
	}
	return leadingInt(line[begin:end])
}

// leadingInt parses the run of decimal digits b starts with, without
// the allocation strconv needs for a byte slice.
func leadingInt(b []byte) (v int64, ok bool) {
	n := 0
	for ; n < len(b) && b[n] >= '0' && b[n] <= '9'; n++ {
		v = v*10 + int64(b[n]-'0')
	}
	return v, n > 0 && n <= 18
}

// fieldAfter returns the text between marker and the next comma.
func fieldAfter(line []byte, marker string) ([]byte, bool) {
	i := bytes.Index(line, []byte(marker))
	if i < 0 {
		return nil, false
	}
	rest := line[i+len(marker):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return nil, false
	}
	return rest[:end], true
}
