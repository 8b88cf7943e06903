// Command probe is a development calibration tool: it fits the vendor
// baseline class efficiencies to the paper's published baseline latencies.
package main

import (
	"fmt"

	"unigpu/internal/baselines"
	"unigpu/internal/bench"
	"unigpu/internal/sim"
)

type target struct {
	model string
	ms    float64
}

func main() {
	e := bench.NewEstimator()
	fit := func(p *sim.Platform, targets []target) {
		type decomp struct {
			flops [6]float64
			vis   float64
			want  float64
			name  string
		}
		var ds []decomp
		for _, t := range targets {
			m := e.Model(t.model, p)
			var d decomp
			d.want = t.ms
			d.name = t.model
			for _, w := range m.Convs {
				c := baselines.Classify(w)
				d.flops[c] += w.FLOPs()
			}
			d.vis = baselines.ForPlatform(p).VisionMs(m)
			ds = append(ds, d)
		}
		eval := func(eff [6]float64, d decomp) float64 {
			ms := d.vis
			for c := 0; c < 6; c++ {
				if d.flops[c] > 0 {
					ms += d.flops[c] / (p.GPU.PeakGFLOPs * 1e9 * p.GPU.BaseEfficiency * eff[c]) * 1e3
				}
			}
			return ms
		}
		cost := func(eff [6]float64) float64 {
			var err float64
			for _, d := range ds {
				r := eval(eff, d) / d.want
				if r < 1 {
					r = 1 / r
				}
				w := 1.0
				if d.name == "ResNet50_v1" {
					w = 4.0 // the headline comparison model
				}
				err += w * (r - 1) * (r - 1)
			}
			return err
		}
		eff := [6]float64{1, 1, 1, 1, 1, 1}
		for iter := 0; iter < 300; iter++ {
			for c := 0; c < 6; c++ {
				best, bestE := cost(eff), eff[c]
				for _, scale := range []float64{0.8, 0.9, 0.97, 1.03, 1.1, 1.25} {
					trial := eff
					trial[c] = eff[c] * scale
					if trial[c] < 0.05 || trial[c] > 6 {
						continue
					}
					if v := cost(trial); v < best {
						best, bestE = v, trial[c]
					}
				}
				eff[c] = bestE
			}
		}
		fmt.Printf("%s: eff = Conv3x3:%.3f Conv3x3Big:%.3f Conv1x1:%.3f ConvLarge:%.3f Depthwise:%.3f DenseFC:%.3f (err %.4f)\n",
			p.Name, eff[0], eff[1], eff[2], eff[3], eff[4], eff[5], cost(eff))
		for _, d := range ds {
			fmt.Printf("  %-18s want %8.1f got %8.1f (vis %.1f)\n", d.name, d.want, eval(eff, d), d.vis)
		}
	}

	fit(sim.DeepLens, []target{
		{"ResNet50_v1", 203.60}, {"MobileNet1.0", 53.48}, {"SqueezeNet1.0", 42.01},
	})
	fit(sim.AiSage, []target{
		{"ResNet50_v1", 358.17}, {"MobileNet1.0", 95.00}, {"SqueezeNet1.0", 77.10},
		{"SSD_MobileNet1.0", 216.87}, {"SSD_ResNet50", 737.90}, {"Yolov3", 1042.90},
	})
	fit(sim.JetsonNano, []target{
		{"ResNet50_v1", 117.22}, {"MobileNet1.0", 30.71}, {"SqueezeNet1.0", 42.98},
		{"SSD_MobileNet1.0", 197.3}, {"SSD_ResNet50", 478.33}, {"Yolov3", 802.41},
	})
	compose(e, "SSD_ResNet50", sim.JetsonNano)
	compose(e, "Yolov3", sim.JetsonNano)
}
