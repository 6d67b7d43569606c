package hetpipe

import (
	"context"
	"strings"
	"testing"
)

// simulate resolves a deployment with New and runs Simulate on it.
func simulate(opts ...Option) (*Result, error) {
	dep, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return dep.Simulate(context.Background())
}

func TestRunEDLocal(t *testing.T) {
	res, err := simulate(WithModel("vgg19"), WithPolicy("ED"), WithLocalPlacement(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("non-positive throughput")
	}
	if len(res.PerVW) != 4 || len(res.VirtualWorkers) != 4 || len(res.Plans) != 4 {
		t.Fatalf("expected 4 VWs, got %d/%d/%d", len(res.PerVW), len(res.VirtualWorkers), len(res.Plans))
	}
	for _, vw := range res.VirtualWorkers {
		if vw != "VRGQ" {
			t.Errorf("ED VW = %s, want VRGQ", vw)
		}
	}
	if res.Nm < 1 {
		t.Errorf("Nm = %d", res.Nm)
	}
	// sglobal = (D+1)(slocal+1) + slocal - 1 with D=0.
	if want := res.Nm + res.Nm - 2; res.SGlobal != want {
		t.Errorf("sglobal = %d, want %d", res.SGlobal, want)
	}
}

func TestRunWithSpecs(t *testing.T) {
	res, err := simulate(WithModel("resnet152"), WithSpecs("VR", "VR"), WithNm(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerVW) != 2 {
		t.Fatalf("VWs = %d, want 2", len(res.PerVW))
	}
	if res.Nm != 2 {
		t.Errorf("Nm = %d, want 2 (forced)", res.Nm)
	}
}

func TestRunLiveBackend(t *testing.T) {
	dep, err := New(WithModel("vgg19"), WithPolicy("ED"), WithD(1), WithNm(2), WithMinibatchesPerVW(16))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	live, err := dep.Train(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if live == nil {
		t.Fatal("live run produced no live summary")
	}
	if want := 4 * 16; live.Minibatches != want {
		t.Errorf("live minibatches = %d, want %d", live.Minibatches, want)
	}
	if live.Pushes != 4*16/2 {
		t.Errorf("live pushes = %d, want %d (one per wave)", live.Pushes, 4*16/2)
	}
	if live.MaxClockDistance > 2 {
		t.Errorf("live clock distance %d exceeds D+1=2", live.MaxClockDistance)
	}
	if live.WallSeconds <= 0 {
		t.Error("live run reported no wall time")
	}
	// The same deployment still simulates in full alongside the live run.
	if res.Throughput <= 0 || len(res.Plans) != 4 {
		t.Error("simulation of the live deployment dropped its results")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := simulate(WithModel("vgg19")); err == nil {
		t.Error("missing policy and specs accepted")
	}
	if _, err := simulate(WithModel("nope"), WithPolicy("ED")); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := simulate(WithModel("vgg19"), WithPolicy("XX")); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := simulate(WithModel("vgg19"), WithPolicy("NP"), WithLocalPlacement(true)); err == nil {
		t.Error("local placement under NP accepted")
	}
}

func TestHorovodBaseline(t *testing.T) {
	b, err := Horovod("resnet152", "", 32)
	if err != nil {
		t.Fatal(err)
	}
	if b.Workers != 12 || len(b.Excluded) != 4 {
		t.Errorf("ResNet-152 Horovod workers=%d excluded=%d, want 12/4", b.Workers, len(b.Excluded))
	}
	if b.Throughput <= 0 {
		t.Error("non-positive baseline throughput")
	}
}

func TestPlanView(t *testing.T) {
	plan, err := Plan("vgg19", "VRGQ", 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 4 {
		t.Fatalf("stages = %d, want 4", len(plan.Stages))
	}
	last := 0
	for i, st := range plan.Stages {
		if st.Layers[0] != last {
			t.Errorf("stage %d starts at %d, want %d", i, st.Layers[0], last)
		}
		last = st.Layers[1]
		if st.MemoryBytes > st.MemoryCap {
			t.Errorf("stage %d memory over cap", i)
		}
	}
	if plan.Bottleneck <= 0 {
		t.Error("zero bottleneck")
	}
	// Defaults: nm=0 -> 1, batch=0 -> 32.
	if _, err := Plan("resnet152", "VV", 0, 0); err != nil {
		t.Errorf("defaulted plan failed: %v", err)
	}
}

func TestGanttOutput(t *testing.T) {
	g, err := Gantt("vgg19", "", "VVVV", 4, 10, 80)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g, "GPU1") || !strings.Contains(g, "GPU4") {
		t.Errorf("gantt missing stage rows:\n%s", g)
	}
}

func TestExperimentsRegistry(t *testing.T) {
	names := Experiments()
	if len(names) < 10 {
		t.Fatalf("experiments = %d, want >= 10", len(names))
	}
	out, err := RunExperiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "TITAN V") {
		t.Error("table1 output missing GPU names")
	}
	if _, err := RunExperiment("unknown"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
