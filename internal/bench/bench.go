// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§4) from the stack, pricing each model
// through internal/price exactly as Engine.Compile does and setting it
// beside the vendor baselines of internal/baselines and the paper's
// published numbers. Nothing in the product imports it.
package bench

import (
	"strconv"
	"sync"

	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/price"
	"unigpu/internal/sim"
)

// Estimator is a price estimator plus the harness's cache of lite
// (weightless, graph-optimized) models, one per model and input size.
type Estimator struct {
	*price.Estimator

	mu     sync.Mutex
	graphs map[string]*models.Model
}

// NewEstimator returns an estimator with the default search budget.
func NewEstimator() *Estimator {
	return &Estimator{Estimator: price.NewEstimator(), graphs: map[string]*models.Model{}}
}

// Model returns the (lite, graph-optimized) model for pricing, cached, at
// the platform's input size (price.InputSize).
func (e *Estimator) Model(name string, p *sim.Platform) *models.Model {
	size := price.InputSize(name, p)
	key := name + "@" + strconv.Itoa(size)
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.graphs[key]; ok {
		return m
	}
	m := models.Build(name, size, true)
	graph.Optimize(m.Graph)
	e.graphs[key] = m
	return m
}

// OursMs is the end-to-end latency of our stack for a model on a platform.
// tuned selects searched vs default conv schedules (Table 5); visionOpt
// selects the §3.1.1 operators vs the naive formulation (Table 4).
func (e *Estimator) OursMs(name string, p *sim.Platform, tuned, visionOpt bool) float64 {
	v := price.Naive
	if visionOpt {
		v = price.Optimized
	}
	return e.Price(e.Model(name, p), p, tuned, v).TotalMs
}
