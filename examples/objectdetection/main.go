// Object detection: run SSD end to end — backbone, multibox decode, and
// the optimized vision-specific operators of §3.1 (segmented sort + NMS) —
// and compare the vision pipeline against the naive GPU formulation on all
// three platforms (the Table 4 story).
package main

import (
	"fmt"
	"log"

	"unigpu"
	"unigpu/internal/models"
	"unigpu/internal/price"
	"unigpu/internal/sim"
)

func main() {
	log.SetFlags(0)
	eng := unigpu.NewEngine()

	// Compile SSD-MobileNet at a reduced input so the functional pass is
	// quick; the latency prediction below uses the full 512x512 workload.
	cm, err := eng.Compile("SSD_MobileNet1.0", unigpu.JetsonNano, unigpu.CompileOptions{InputSize: 160})
	if err != nil {
		log.Fatal(err)
	}
	in := unigpu.NewTensor(cm.InputShape()...)
	in.FillRandom(11)
	out, err := cm.Run(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SSD_MobileNet1.0 ran end to end: %v detections tensor\n", out.Shape())
	fmt.Println("top detections [class score x1 y1 x2 y2]:")
	shown := 0
	for i := 0; i < out.Shape()[1] && shown < 5; i++ {
		if out.At(0, i, 0) < 0 {
			break
		}
		fmt.Printf("  %3.0f  %.3f  %6.3f %6.3f %6.3f %6.3f\n",
			out.At(0, i, 0), out.At(0, i, 1),
			out.At(0, i, 2), out.At(0, i, 3), out.At(0, i, 4), out.At(0, i, 5))
		shown++
	}

	// The §3.1 ablation: what the vision-specific operator optimizations
	// buy per platform at full input size.
	fmt.Println("\nvision-specific operator pipeline, SSD_MobileNet1.0 (full size):")
	fmt.Printf("%-22s %14s %14s %9s\n", "platform", "naive (ms)", "optimized (ms)", "gain")
	for _, p := range sim.Platforms() {
		m := models.Build("SSD_MobileNet1.0", price.InputSize("SSD_MobileNet1.0", p), true)
		naive := price.NaiveVisionMs(m.Vision, p.GPU)
		opt := price.OptimizedVisionMs(m.Vision, p.GPU)
		fmt.Printf("%-22s %14.2f %14.2f %8.1fx\n", p.Name, naive, opt, naive/opt)
	}
	fmt.Println("\nMali (no shared memory) gains the most — §4.3's observation.")
}
