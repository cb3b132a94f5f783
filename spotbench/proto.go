package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// The benchmark runs as two processes. The fleet process (--role fleet)
// boots and owns the SpotLight fleet, its monitor ticks and its in-process
// observers; the load process (the command itself) spawns it, sends every
// client request, and reports. Keeping them apart keeps the load
// generator's timers and allocations out of the fleet's Go scheduler and
// GC, so the generator's own lateness stays small and the fleet's GC
// cost is the fleet's alone.
//
// They talk in JSON lines: commands on the fleet's stdin, events on its
// stdout.
//
//	fleet -> load  {"event":"dataset", build_s, fingerprint, markets, from, to}
//	load  -> fleet {"cmd":"boot"}      fleet -> {"event":"booted", gateway, leader}
//	load  -> fleet {"cmd":"discard"}   (a setup repetition's fleet is torn down)
//	load  -> fleet {"cmd":"measure"}   fleet -> {"event":"measuring"}
//	load  -> fleet {"cmd":"mark"}      fleet -> {"event":"marked"}  (read workloads: the fixed-rate phase ended)
//	load  -> fleet {"cmd":"stop"}      fleet -> {"event":"result", result}
//
// Any failure in the fleet process is sent as {"event":"error","err":...}.

// fleetMsg is one protocol line in either direction.
type fleetMsg struct {
	Cmd   string `json:"cmd,omitempty"`
	Event string `json:"event,omitempty"`
	Err   string `json:"err,omitempty"`

	BuildS      float64      `json:"build_s,omitempty"`
	Fingerprint *fingerprint `json:"fingerprint,omitempty"`
	Markets     []string     `json:"markets,omitempty"`
	From        time.Time    `json:"from,omitempty"`
	To          time.Time    `json:"to,omitempty"`

	Gateway string `json:"gateway,omitempty"`
	Leader  string `json:"leader,omitempty"`

	Result *fleetResult `json:"result,omitempty"`
}

// fleetResult is everything the fleet process measured and checked.
type fleetResult struct {
	E2E        map[string]metric `json:"e2e"`
	Layers     map[string]metric `json:"layers"`
	Extra      map[string]metric `json:"extra"`
	Violations []string          `json:"violations"`
	Notes      []string          `json:"notes"`
	// Ticks and Lost count the live leader's scheduled ticks and the
	// watch events its watcher never received.
	Ticks int `json:"ticks"`
	Lost  int `json:"lost"`
	// SpanFile holds the fleet's spans and stage lines (traced runs);
	// Table is its part of the per-layer report.
	SpanFile string `json:"span_file,omitempty"`
	Table    string `json:"table,omitempty"`
}

// fleetProc is the load process's handle on the fleet process.
type fleetProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
	enc *json.Encoder
}

// startFleet spawns this executable in the fleet role with args.
func startFleet(args []string) (*fleetProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append([]string{"--role", "fleet"}, args...)...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	return &fleetProc{cmd: cmd, in: in, out: sc, enc: json.NewEncoder(in)}, nil
}

func (f *fleetProc) send(cmd string) error { return f.enc.Encode(fleetMsg{Cmd: cmd}) }

// expect reads the next event and requires it to be want.
func (f *fleetProc) expect(want string) (fleetMsg, error) {
	if !f.out.Scan() {
		if err := f.out.Err(); err != nil {
			return fleetMsg{}, err
		}
		return fleetMsg{}, fmt.Errorf("fleet process ended before %q", want)
	}
	var m fleetMsg
	if err := json.Unmarshal(f.out.Bytes(), &m); err != nil {
		return m, fmt.Errorf("fleet protocol: %w", err)
	}
	if m.Event == "error" {
		return m, errors.New("fleet: " + m.Err)
	}
	if m.Event != want {
		return m, fmt.Errorf("fleet sent %q, want %q", m.Event, want)
	}
	return m, nil
}

// close ends the fleet process (closing its stdin stops it) and waits for
// it to exit.
func (f *fleetProc) close() error {
	f.in.Close()
	done := make(chan error, 1)
	go func() { done <- f.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		f.cmd.Process.Kill()
		return <-done
	}
}

// fleetSide is the fleet process's end of the protocol.
type fleetSide struct {
	in  *bufio.Scanner
	enc *json.Encoder
}

func newFleetSide() *fleetSide {
	return &fleetSide{in: bufio.NewScanner(os.Stdin), enc: json.NewEncoder(os.Stdout)}
}

func (f *fleetSide) emit(m fleetMsg) error { return f.enc.Encode(m) }

// next blocks for the next command; a closed stdin reads as "exit".
func (f *fleetSide) next() (string, error) {
	if !f.in.Scan() {
		return "exit", f.in.Err()
	}
	var m fleetMsg
	if err := json.Unmarshal(f.in.Bytes(), &m); err != nil {
		return "", fmt.Errorf("fleet protocol: %w", err)
	}
	return m.Cmd, nil
}
