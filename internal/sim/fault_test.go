package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"unigpu/internal/obs"
)

// TestFaultInjectorDeterminism: the same seed and dispatch order must
// produce the same fault sequence — the soak's reproducibility hinges on it.
func TestFaultInjectorDeterminism(t *testing.T) {
	sequence := func() []string {
		inj := NewFaultInjector(FaultConfig{
			Seed: 42, Rate: 0.5, HangLatency: time.Microsecond,
			Kinds: []FaultKind{FaultTransientKernel, FaultQueueHang, FaultMemPressure},
		})
		var seq []string
		for i := 0; i < 200; i++ {
			err := inj.Dispatch(context.Background(), "n")
			if err == nil {
				seq = append(seq, "ok")
				continue
			}
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("dispatch error is %T, want *Fault", err)
			}
			seq = append(seq, f.Kind.String())
		}
		return seq
	}
	a, b := sequence(), sequence()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverges at %d: %s != %s", i, a[i], b[i])
		}
	}
}

// TestFaultInjectorScript: scripted faults fire in order before random
// draws, and counters attribute them per kind.
func TestFaultInjectorScript(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{}).
		Script(FaultTransientKernel, FaultMemPressure)
	err := inj.Dispatch(context.Background(), "a")
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultTransientKernel || !f.Transient() {
		t.Fatalf("first dispatch: got %v, want transient_kernel", err)
	}
	err = inj.Dispatch(context.Background(), "b")
	if !errors.As(err, &f) || f.Kind != FaultMemPressure || !f.Transient() {
		t.Fatalf("second dispatch: got %v, want mem_pressure", err)
	}
	if err := inj.Dispatch(context.Background(), "c"); err != nil {
		t.Fatalf("script drained, dispatch should be healthy: %v", err)
	}
	if c := inj.Counts(); len(c) != 2 || c[FaultTransientKernel.String()] != 1 || c[FaultMemPressure.String()] != 1 {
		t.Fatalf("counters: %v, want one transient_kernel and one mem_pressure", c)
	}
}

// TestFaultInjectorDeviceLoss: a lost device fails every subsequent
// dispatch (non-transient) until healed.
func TestFaultInjectorDeviceLoss(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{}).Script(FaultDeviceLost)
	err := inj.Dispatch(context.Background(), "a")
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultDeviceLost || f.Transient() {
		t.Fatalf("got %v, want permanent device_lost", err)
	}
	if !inj.DeviceLost() {
		t.Fatal("device must be lost")
	}
	for i := 0; i < 3; i++ {
		if err := inj.Dispatch(context.Background(), "b"); !errors.As(err, &f) || f.Kind != FaultDeviceLost {
			t.Fatalf("lost device dispatch %d: got %v", i, err)
		}
	}
	if got := inj.Counts()[FaultDeviceLost.String()]; got != 1 {
		t.Fatalf("device loss injected once, counted %d", got)
	}
	inj.Heal()
	if inj.DeviceLost() {
		t.Fatal("healed device must not be lost")
	}
	if err := inj.Dispatch(context.Background(), "c"); err != nil {
		t.Fatalf("healed dispatch: %v", err)
	}
}

// TestFaultInjectorHangCancel: a queue hang respects context cancellation
// instead of stalling for the full latency.
func TestFaultInjectorHangCancel(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{HangLatency: 10 * time.Second}).Script(FaultQueueHang)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := inj.Dispatch(ctx, "a")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancel took %v, hang not interruptible", elapsed)
	}
}

// TestFaultInjectorMaxFaults: the random-fault budget caps injections, so
// soaks can guarantee eventual success.
func TestFaultInjectorMaxFaults(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{
		Seed: 1, Rate: 1.0, MaxFaults: 5,
		Kinds: []FaultKind{FaultTransientKernel},
	})
	faults := 0
	for i := 0; i < 100; i++ {
		if err := inj.Dispatch(context.Background(), "n"); err != nil {
			faults++
		}
	}
	if faults != 5 {
		t.Fatalf("injected %d faults, want MaxFaults=5", faults)
	}
}

// TestNilInjectorHealthy: a nil injector is a healthy device.
func TestNilInjectorHealthy(t *testing.T) {
	var inj *FaultInjector
	if err := inj.Dispatch(context.Background(), "n"); err != nil {
		t.Fatalf("nil injector must be healthy: %v", err)
	}
	if inj.DeviceLost() || len(inj.Counts()) != 0 {
		t.Fatal("nil injector must report no faults")
	}
}

// TestFaultInjectorKill: Kill is the scripted device loss — immediate,
// idempotent, counted as a FaultDeviceLost, and reversed by Heal.
func TestFaultInjectorKill(t *testing.T) {
	inj := NewFaultInjector(FaultConfig{})
	if inj.DeviceLost() {
		t.Fatal("fresh injector reports device lost")
	}
	inj.Kill()
	if !inj.DeviceLost() {
		t.Fatal("Kill did not lose the device")
	}
	err := inj.Dispatch(context.Background(), "n")
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultDeviceLost {
		t.Fatalf("dispatch after Kill: got %v, want FaultDeviceLost", err)
	}
	inj.Kill() // idempotent: no double count
	if got := inj.Counts()[FaultDeviceLost.String()]; got != 1 {
		t.Fatalf("device_lost count = %d, want 1", got)
	}
	inj.Heal()
	if inj.DeviceLost() {
		t.Fatal("Heal did not restore the device")
	}
	if err := inj.Dispatch(context.Background(), "n"); err != nil {
		t.Fatalf("dispatch after Heal: %v", err)
	}
	// nil-safe scripting: a replica without an injector ignores both.
	var nilInj *FaultInjector
	nilInj.Kill()
	nilInj.Heal()
}

// TestFaultInjectorDeviceLabel: an injector carrying a Device name counts
// faults under fault.injected.<kind>.<device>; without one the original
// single-device metric names are untouched (backward compatibility).
func TestFaultInjectorDeviceLabel(t *testing.T) {
	labelled := obs.DefaultRegistry.Counter("fault.injected.device_lost.test-dev-7")
	legacy := obs.DefaultRegistry.Counter("fault.injected.device_lost")
	l0, g0 := labelled.Value(), legacy.Value()

	NewFaultInjector(FaultConfig{Device: "test-dev-7"}).Kill()
	if got := labelled.Value() - l0; got != 1 {
		t.Fatalf("labelled counter rose by %d, want 1", got)
	}
	if got := legacy.Value() - g0; got != 0 {
		t.Fatalf("labelled Kill leaked %d into the legacy counter", got)
	}

	NewFaultInjector(FaultConfig{}).Kill()
	if got := legacy.Value() - g0; got != 1 {
		t.Fatalf("legacy counter rose by %d, want 1", got)
	}
}
