package exec

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"harmony/internal/data"
	"harmony/internal/fault"
	"harmony/internal/nn"
	"harmony/internal/sched"
)

// recoverRun is everything a fault-free run shows of itself: what it
// moved, how long it held the links, the host memory its pages hold, its
// losses and its checkpoint.
type recoverRun struct {
	stats  VMStats
	link   LinkStats
	host   int64
	losses []uint32
	save   []byte
}

func runRecording(t *testing.T, cfg TrainerConfig, steps int) recoverRun {
	t.Helper()
	tr, _ := onManualClock(t, cfg)
	var r recoverRun
	for _, l := range stepTrainer(t, tr, 0, steps) {
		r.losses = append(r.losses, math.Float32bits(l))
	}
	r.stats, r.link, r.host = tr.Stats(), tr.LinkStats(), tr.HostBytes()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r.save = buf.Bytes()
	return r
}

// TestRecoverCostsNothingUntilAFault: Recover's rollback target is read
// out without moving a page, so on a run that never faults it changes
// nothing the run does — not the bytes moved, the link time, the host
// memory held, the losses nor the checkpoint. The pressure rows are the
// tests' 12 KiB devices; Adam's are 20 KiB, since at 12 KiB the preflight
// rejects it (an update pins 16.5 KiB). Every pressure row writes pages
// back, and no roomy row does. Every link a run books is fixed by its
// plan (a monolithic reduction's is replica 0's, whichever replica
// arrives last), so the roomy rows compare all their counters on both
// executors. Under pressure the parallel executor's eviction order
// depends on how its workers interleave, so the Stats and link time of
// those rows move between identical runs, and there only losses and
// checkpoints are compared.
func TestRecoverCostsNothingUntilAFault(t *testing.T) {
	nn.SetWorkers(4)
	defer nn.SetWorkers(runtime.GOMAXPROCS(0))
	const steps = 10
	for _, mode := range []sched.Mode{sched.HarmonyDP, sched.HarmonyPP, sched.DPBaseline} {
		for _, roomy := range []bool{true, false} {
			for _, adam := range []bool{false, true} {
				for _, serial := range []bool{true, false} {
					cfg := trainerConfig(mode, 2)
					cfg.Adam, cfg.Serial, cfg.LinkBytesPerSec = adam, serial, 1<<30
					mem, opt, exe := "pressure", "sgd", "serial"
					switch {
					case roomy:
						mem, cfg.DeviceBytes = "roomy", 1<<20
					case adam:
						cfg.DeviceBytes = 20 << 10
					}
					if adam {
						opt = "adam"
					}
					if !serial {
						exe = "parallel"
					}
					t.Run(fmt.Sprintf("%v/%s/%s/%s", mode, mem, opt, exe), func(t *testing.T) {
						off := runRecording(t, cfg, steps)
						cfg.Recover = true
						on := runRecording(t, cfg, steps)
						if wrote := off.stats.SwapOuts > 0; wrote == roomy {
							t.Fatalf("%d write-backs without Recover: the row is not what its name says", off.stats.SwapOuts)
						}
						if !reflect.DeepEqual(off.losses, on.losses) {
							t.Errorf("losses differ:\n without %v\n with    %v", off.losses, on.losses)
						}
						if !bytes.Equal(off.save, on.save) {
							t.Error("checkpoints differ")
						}
						if !serial && !roomy {
							return
						}
						if off.stats != on.stats {
							t.Errorf("Stats differ:\n without %+v\n with    %+v", off.stats, on.stats)
						}
						if off.host != on.host {
							t.Errorf("HostBytes %d without Recover, %d with", off.host, on.host)
						}
						if !reflect.DeepEqual(off.link, on.link) {
							t.Errorf("LinkStats differ:\n without %+v\n with    %+v", off.link, on.link)
						}
					})
				}
			}
		}
	}
}

// TestReadingStateOutIsNoFaultSite: capturing the rollback target, Save
// and Predict read pages out without moving them, so a rule that kills
// every write-back never fires on a run whose devices never evict.
func TestReadingStateOutIsNoFaultSite(t *testing.T) {
	cfg := faultyConfig(sched.HarmonyDP, "op=swap-out,mode=fatal,count=0", true)
	cfg.Adam, cfg.DeviceBytes = true, 1<<20
	tr, _ := runTrainer(t, cfg, 4)
	if err := tr.Save(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	x, _ := data.NewBlobs(tr.inDim, tr.classes, 0.5, 7).Batch(4, 0)
	if _, err := tr.Predict(x, 4); err != nil {
		t.Fatal(err)
	}
	if injected, _ := tr.FaultStats(); injected != 0 {
		t.Fatalf("%d swap-out faults fired on a run that never writes back", injected)
	}
}

// within runs f, failing the test if it has not returned by a deadline:
// a fault must end in a recovery or an error, never in a hang.
func within(t *testing.T, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("hung past the 30 s deadline")
		return nil
	}
}

// stepsWithin runs steps first..first+n-1 of runTrainer's data stream
// under within, stopping at the first error.
func stepsWithin(t *testing.T, tr *Trainer, first, n int) ([]float32, error) {
	t.Helper()
	var losses []float32
	err := within(t, func() error {
		blobs := data.NewBlobs(tr.inDim, tr.classes, 0.5, 7)
		for s := first; s < first+n; s++ {
			x, y := blobs.Batch(tr.SamplesPerStep(), uint64(s))
			loss, err := tr.Step(x, y)
			if err != nil {
				return err
			}
			losses = append(losses, loss)
		}
		return nil
	})
	return losses, err
}

// TestFaultDuringRollback is a compound fault: the rollback itself
// faults. On the serial executor gpu0 runs first, so its kernel fault at
// step 3 strikes before gpu1 has done anything that step. Recovery binds
// both replicas to gpu1, which holds their pins (the preflight's bound
// for the pair is 33 KiB) but not their weights and Adam moments
// (41 KiB): restoring them writes pages back, and every write-back is a
// swap-out fault site at step 3. A transient fault there is retried and
// the run stays bit-identical to a fault-free one; a fatal one fails the
// step with the rollback named.
func TestFaultDuringRollback(t *testing.T) {
	base := trainerConfig(sched.HarmonyDP, 2)
	base.Adam, base.Serial, base.DeviceBytes = true, true, 36<<10
	ref, lossRef := runTrainer(t, base, 4)

	cfg := base
	cfg.Recover = true
	cfg.FaultSpec = "op=kernel,mode=fatal,dev=0,step=3;op=swap-out,mode=transient,dev=1,step=3,count=2"
	tr, err := NewTrainer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	losses, err := stepsWithin(t, tr, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, ref, tr, lossRef, losses)
	if injected, _ := tr.FaultStats(); tr.Recoveries() != 1 || injected != 3 {
		t.Fatalf("%d recoveries and %d faults, want the kernel fault recovered from and two write-back faults retried", tr.Recoveries(), injected)
	}

	cfg.FaultSpec = "op=kernel,mode=fatal,dev=0,step=3;op=swap-out,mode=fatal,dev=1,step=3"
	if tr, err = NewTrainer(cfg, nil); err != nil {
		t.Fatal(err)
	}
	_, err = stepsWithin(t, tr, 0, 4)
	if dev, fatal := fault.AsFatal(err); !fatal || dev != 1 || !strings.Contains(err.Error(), "rollback") || tr.step != 3 {
		t.Fatalf("a fatal fault in the rollback ended step %d with %v, want step 3 failing with gpu1's fatal fault in the rollback", tr.step, err)
	}
}

// TestFaultDuringRetune is a compound fault in Retune's restore: at
// 20 KiB a device holds its replica's pins but not its weights and Adam
// moments, so restoring them into the retuned plan's VM writes pages
// back. The fault rules are armed after training starts, so they can
// only strike there. Transient faults are retried and the run stays
// bit-identical to one that retuned without faults; a fatal one fails
// Retune with the restore named, and the plan switch does not commit:
// the trainer goes on with its old plan and VM, moving and training
// exactly as one that never called Retune.
func TestFaultDuringRetune(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyDP, 2)
	cfg.Adam, cfg.Serial, cfg.DeviceBytes = true, true, 20<<10
	run := func(spec string) (*Trainer, []float32, error) {
		tr, losses := runTrainer(t, cfg, 2)
		inj, err := fault.Parse(spec, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		tr.inj = inj // the next VM, Retune's, is armed with it
		if err := within(t, func() error { return tr.Retune(8) }); err != nil {
			return tr, losses, err
		}
		if injected, _ := tr.FaultStats(); spec != "" && injected == 0 {
			t.Fatal("Retune's restore wrote nothing back: the device is not under pressure")
		}
		more, err := stepsWithin(t, tr, 2, 2)
		return tr, append(losses, more...), err
	}
	ref, lossRef, err := run("")
	if err != nil {
		t.Fatal(err)
	}
	tr, losses, err := run("op=swap-out,mode=transient,count=2")
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, ref, tr, lossRef, losses)

	tr, losses, err = run("op=swap-out,mode=fatal")
	if _, fatal := fault.AsFatal(err); !fatal || !strings.Contains(err.Error(), "retune state restore") {
		t.Fatalf("a fatal fault in Retune's restore returned %v, want it named", err)
	}
	more, err := stepsWithin(t, tr, 2, 2)
	if err != nil {
		t.Fatalf("a trainer whose Retune failed cannot step: %v", err)
	}
	plain, lossPlain := runTrainer(t, cfg, 4)
	assertSameRun(t, plain, tr, lossPlain, append(losses, more...))
	if tr.cfg.Microbatches != plain.cfg.Microbatches || tr.Stats() != plain.Stats() {
		t.Fatalf("after a failed Retune: %d microbatches, %+v moved; a trainer that never retuned: %d, %+v",
			tr.cfg.Microbatches, tr.Stats(), plain.cfg.Microbatches, plain.Stats())
	}
}

// TestFaultDuringLoad is TestFaultDuringRetune's fault in Load: the
// trainer loads its own checkpoint, so restoring it writes pages back
// under the same pressure. Transient faults are retried and the run
// stays bit-identical to one that never loaded; a fatal one fails Load
// with the restore named and keeps the live VM, so the trainer goes on
// moving and training exactly as one that never called Load.
func TestFaultDuringLoad(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyDP, 2)
	cfg.Adam, cfg.Serial, cfg.DeviceBytes = true, true, 20<<10
	run := func(spec string) (*Trainer, []float32, error) {
		tr, losses := runTrainer(t, cfg, 2)
		ckpt := saved(t, tr)
		inj, err := fault.Parse(spec, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		// Armed in the live VM too, so the fault strikes wherever Load
		// restores.
		tr.inj, tr.vm.cfg.inj = inj, inj
		if err := within(t, func() error { return tr.Load(bytes.NewReader(ckpt)) }); err != nil {
			return tr, losses, err
		}
		if injected, _ := tr.FaultStats(); spec != "" && injected == 0 {
			t.Fatal("Load's restore wrote nothing back: the device is not under pressure")
		}
		more, err := stepsWithin(t, tr, 2, 2)
		return tr, append(losses, more...), err
	}
	plain, lossPlain := runTrainer(t, cfg, 4)
	tr, losses, err := run("op=swap-out,mode=transient,count=2")
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, plain, tr, lossPlain, losses)

	tr, losses, err = run("op=swap-out,mode=fatal")
	if _, fatal := fault.AsFatal(err); !fatal || !strings.Contains(err.Error(), "checkpoint restore") {
		t.Fatalf("a fatal fault in Load's restore returned %v, want it named", err)
	}
	more, err := stepsWithin(t, tr, 2, 2)
	if err != nil {
		t.Fatalf("a trainer whose Load failed cannot step: %v", err)
	}
	assertSameRun(t, plain, tr, lossPlain, append(losses, more...))
	if tr.Stats() != plain.Stats() {
		t.Fatalf("after a failed Load %+v moved; a trainer that never loaded: %+v", tr.Stats(), plain.Stats())
	}
}

// TestRecoveryRollsBackToALoadedCheckpoint: the rollback target is the
// state a step starts from, so a fatal fault in the first step after
// Load rolls back to the checkpoint, not to what the trainer held before
// it, and the run matches one that loaded the same checkpoint and never
// faulted.
func TestRecoveryRollsBackToALoadedCheckpoint(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyDP, 2)
	cfg.DeviceBytes = 32 << 10
	src, _ := runTrainer(t, cfg, 2)
	var ckpt bytes.Buffer
	if err := src.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	run := func(cfg TrainerConfig) (*Trainer, []float32) {
		tr, err := NewTrainer(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Load(bytes.NewReader(ckpt.Bytes())); err != nil {
			t.Fatal(err)
		}
		losses, err := stepsWithin(t, tr, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		return tr, losses
	}
	ref, lossRef := run(cfg)
	cfg.FaultSpec, cfg.Recover = "op=kernel,mode=fatal,dev=1,step=3", true
	tr, losses := run(cfg)
	assertSameRun(t, ref, tr, lossRef, losses)
	if tr.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", tr.Recoveries())
	}
}

// TestStepErrorNamesTheFailedDevice: a failed step names the physical
// device its task ran on — the one the fault names — and adds the
// virtual device only once recovery has bound it elsewhere.
func TestStepErrorNamesTheFailedDevice(t *testing.T) {
	cfg := trainerConfig(sched.HarmonyDP, 2)
	cfg.Serial, cfg.DeviceBytes = true, 64<<10 // gpu1 can hold both replicas
	for _, c := range []struct {
		recover bool
		spec    string
		want    string
	}{
		{false, "op=kernel,mode=fatal,dev=1,step=1",
			`^exec: FWD\[r1,L0,mb0\] on gpu1: fault: injected fatal kernel failure on dev 1 at step 1$`},
		// gpu0 fails at step 1; recovery binds both virtual devices to
		// gpu1, whose own failure at step 2 leaves no device.
		{true, "op=kernel,mode=fatal,dev=0,step=1;op=kernel,mode=fatal,dev=1,step=2",
			`^exec: unrecoverable fault \(exec: FWD\[r0,L0,mb0\] on gpu1 \(virtual device 0\): fault: injected fatal kernel failure on dev 1 at step 2\): exec: no devices left$`},
	} {
		cfg.Recover, cfg.FaultSpec = c.recover, c.spec
		tr, err := NewTrainer(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = stepsWithin(t, tr, 0, 3)
		if err == nil || !regexp.MustCompile(c.want).MatchString(err.Error()) {
			t.Errorf("%s: %v, want an error matching %q", c.spec, err, c.want)
		}
	}
}
