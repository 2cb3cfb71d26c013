package contingency

import (
	"errors"
	"fmt"
	"sync"

	"gridmind/internal/model"
	"gridmind/internal/powerflow"
	"gridmind/internal/ptdf"
)

// Base is the outage base of one network structure, read by every outage
// study and modified by none (workers value-copy the Ybus; the ordering
// cache and the PTDF's LODF memo are concurrency-safe). A SweepPool
// resolves one Base for its state: engine.Artifacts, or NewBase.
type Base interface {
	Ybus() *model.Ybus
	Topology() *model.Topology
	Ordering() *powerflow.OrderingCache
	// PTDF is asked for only by a study that screens.
	PTDF() (*ptdf.Matrix, error)
}

type oneShotBase struct {
	ybus    *model.Ybus
	topo    *model.Topology
	reorder *powerflow.OrderingCache
	ptdf    func() (*ptdf.Matrix, error)
}

// NewBase builds a private outage base of n: the Ybus and topology every
// worker needs now, the PTDF on the first screen that asks for it.
func NewBase(n *model.Network) Base {
	return &oneShotBase{
		ybus:    model.BuildYbus(n),
		topo:    model.NewTopology(n),
		reorder: powerflow.NewOrderingCache(),
		ptdf:    sync.OnceValues(func() (*ptdf.Matrix, error) { return ptdf.Build(n) }),
	}
}

func (b *oneShotBase) Ybus() *model.Ybus                  { return b.ybus }
func (b *oneShotBase) Topology() *model.Topology          { return b.topo }
func (b *oneShotBase) Ordering() *powerflow.OrderingCache { return b.reorder }
func (b *oneShotBase) PTDF() (*ptdf.Matrix, error)        { return b.ptdf() }

// ErrArtifactMismatch reports an Options alias that is not the artifact of
// the pool's outage base.
var ErrArtifactMismatch = errors.New("contingency: artifact does not belong to the pool's outage base")

// base fills o, a nil Pool with a throwaway one over NewBase, and returns
// the pool's outage base for n. A network without a slack bus fails with
// ErrNoBase, an alias set to any other artifact than the base's with
// ErrArtifactMismatch.
func (o *Options) base(n *model.Network) (Base, error) {
	if n.SlackBus() < 0 {
		return nil, ErrNoBase
	}
	o.fill()
	if o.Pool == nil {
		o.Pool = NewSweepPool(NewBase)
	}
	b := o.Pool.Base(n)
	ptdfOf := func() *ptdf.Matrix { m, _ := b.PTDF(); return m }
	field := ""
	switch {
	case o.BaseYbus != nil && o.BaseYbus != b.Ybus():
		field = "BaseYbus"
	case o.Topology != nil && o.Topology != b.Topology():
		field = "Topology"
	case o.Reorder != nil && o.Reorder != b.Ordering():
		field = "Reorder"
	case o.PTDF != nil && o.PTDF != ptdfOf():
		field = "PTDF"
	default:
		return b, nil
	}
	return nil, fmt.Errorf("%w: Options.%s", ErrArtifactMismatch, field)
}
