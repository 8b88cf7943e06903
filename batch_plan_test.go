package unigpu

import (
	"math"
	"testing"

	"unigpu/internal/tensor"
)

// TestPlanForBatchMatchesPerRequestPlan: PlanForBatch lowers the model at
// batch n through the same function as Compile, so each row of a batch-2
// run equals the per-request plan's output for that image — bit for bit
// under fp32 and fp16, and within TestDTypeAccuracyBudgets' int8 budget
// against the fp32 rows under int8 (whose activation scales are calibrated
// on the graph being lowered, so they depend on the batch).
func TestPlanForBatchMatchesPerRequestPlan(t *testing.T) {
	budget := dtypeBudgets[1] // MobileNet1.0
	eng := NewEngine()
	imgs := [2]*Tensor{NewTensor(1, 3, budget.size, budget.size), NewTensor(1, 3, budget.size, budget.size)}
	both := NewTensor(2, 3, budget.size, budget.size)
	for i, img := range imgs {
		img.FillRandom(int64(7 + i))
		copy(both.Data()[i*img.Size():], img.Data())
	}

	var fp32Rows [2]*Tensor
	for _, dtype := range []string{"fp32", "fp16", "int8"} {
		cm, err := eng.Compile(budget.model, DeepLens,
			CompileOptions{InputSize: budget.size, SkipTuning: true, DType: dtype})
		if err != nil {
			t.Fatalf("compile %s: %v", dtype, err)
		}
		one, err := cm.PlanForBatch(1)
		if canonical, _ := cm.Plan(); err != nil || one != canonical {
			t.Fatalf("%s: PlanForBatch(1) = %p, %v; want the per-request plan %p", dtype, one, err, canonical)
		}
		two, err := cm.PlanForBatch(2)
		if err != nil {
			t.Fatalf("%s: PlanForBatch(2): %v", dtype, err)
		}
		if again, _ := cm.PlanForBatch(2); again != two {
			t.Fatalf("%s: PlanForBatch(2) compiled twice", dtype)
		}
		if k1, k2 := one.Info().Kernels, two.Info().Kernels; len(k1) == 0 || len(k2) == 0 {
			t.Fatalf("%s: plans without conv kernels: %v, %v", dtype, k1, k2)
		}

		outs, err := two.NewSession().Run(map[string]*tensor.Tensor{"data": both})
		if err != nil {
			t.Fatalf("%s: batch-2 run: %v", dtype, err)
		}
		batched := outs[0]
		rowElems := batched.Size() / 2
		for i, img := range imgs {
			row, err := cm.Run(img)
			if err != nil {
				t.Fatalf("%s: per-request run: %v", dtype, err)
			}
			if dtype == "fp32" {
				fp32Rows[i] = row
			}
			got := tensor.FromData(batched.Data()[i*rowElems:(i+1)*rowElems], row.Shape()...)
			if dtype == "int8" {
				if e := relErrVsRef(fp32Rows[i], got); e > budget.int8 {
					t.Errorf("int8 batch-2 row %d: rel error %.3e against fp32 exceeds budget %.1e", i, e, budget.int8)
				}
				continue
			}
			for j, want := range row.Data() {
				if math.Float32bits(got.Data()[j]) != math.Float32bits(want) {
					t.Fatalf("%s batch-2 row %d differs from the per-request plan at %d: %v != %v",
						dtype, i, j, got.Data()[j], want)
				}
			}
		}
	}
}
