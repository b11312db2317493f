package model

import "fmt"

// Builder assembles a Scenario incrementally. It is the ergonomic front door
// used by tests, examples and the workload generator; NewScenario remains
// available for callers that already hold complete tables.
//
// The zero Builder is not usable; create one with NewBuilder.
type Builder struct {
	reps          *RepresentationSet
	users         []User
	sessions      []Session
	agents        []Agent
	dMS           [][]float64
	hMS           [][]float64
	h             DelayFunc
	dMaxMS        float64
	downscaleOnly bool
	err           error
}

// NewBuilder creates a Builder over the given representation set. A nil set
// selects DefaultRepresentations.
func NewBuilder(reps *RepresentationSet) *Builder {
	if reps == nil {
		reps = DefaultRepresentations()
	}
	return &Builder{reps: reps}
}

// Reps exposes the builder's representation set (for looking up indices by
// name while constructing users).
func (b *Builder) Reps() *RepresentationSet { return b.reps }

// AddAgent appends an agent and returns its ID. If the agent's SigmaMS table
// is nil, a uniform 45 ms table is installed (mid-range of the paper's
// 30–60 ms prototype band). Zero prices default to 1.
func (b *Builder) AddAgent(a Agent) AgentID {
	a.ID = AgentID(len(b.agents))
	if a.SigmaMS == nil {
		a.SigmaMS = UniformSigma(b.reps.Len(), 45)
	}
	if a.CapabilityFactor == 0 {
		a.CapabilityFactor = 1
	}
	if a.TrafficPricePerMbps == 0 {
		a.TrafficPricePerMbps = 1
	}
	if a.TranscodePricePerTask == 0 {
		a.TranscodePricePerTask = 1
	}
	b.agents = append(b.agents, a)
	return a.ID
}

// AddSession opens a new empty session and returns its ID.
func (b *Builder) AddSession(name string) SessionID {
	id := SessionID(len(b.sessions))
	b.sessions = append(b.sessions, Session{ID: id, Name: name})
	return id
}

// AddUser appends a user to an existing session and returns its ID.
// downstream may be nil (user accepts every source's native representation).
func (b *Builder) AddUser(name string, s SessionID, upstream Representation, downstream map[UserID]Representation) UserID {
	id := UserID(len(b.users))
	if int(s) < 0 || int(s) >= len(b.sessions) {
		b.fail(fmt.Errorf("model: AddUser(%q): unknown session %d", name, s))
		return id
	}
	b.users = append(b.users, User{
		ID:         id,
		Name:       name,
		Session:    s,
		Upstream:   upstream,
		Downstream: downstream,
	})
	b.sessions[s].Users = append(b.sessions[s].Users, id)
	return id
}

// DemandFrom records that user u demands representation r for the stream of
// source v. Use after both users exist to express transcoding demands
// pairwise (handy when demand patterns depend on user IDs).
func (b *Builder) DemandFrom(u, v UserID, r Representation) *Builder {
	if int(u) < 0 || int(u) >= len(b.users) || int(v) < 0 || int(v) >= len(b.users) {
		b.fail(fmt.Errorf("model: DemandFrom(%d, %d): unknown user", u, v))
		return b
	}
	if b.users[u].Downstream == nil {
		b.users[u].Downstream = make(map[UserID]Representation)
	}
	b.users[u].Downstream[v] = r
	return b
}

// SetInterAgentDelays installs the full D matrix (L×L, ms).
func (b *Builder) SetInterAgentDelays(dMS [][]float64) *Builder {
	b.dMS = dMS
	return b
}

// SetAgentUserDelays installs the full H matrix (L×U, ms).
func (b *Builder) SetAgentUserDelays(hMS [][]float64) *Builder {
	b.hMS, b.h = hMS, nil
	return b
}

// SetAgentUserDelayFunc installs H as a function (see DelayFunc).
func (b *Builder) SetAgentUserDelayFunc(h DelayFunc) *Builder {
	b.hMS, b.h = nil, h
	return b
}

// SetDelayCap overrides the Dmax end-to-end delay cap in milliseconds.
func (b *Builder) SetDelayCap(ms float64) *Builder {
	b.dMaxMS = ms
	return b
}

// RestrictDownscaleOnly activates the paper's footnote-1 θ customization:
// only high-to-low quality transcoding; upward demands are served natively.
func (b *Builder) RestrictDownscaleOnly() *Builder {
	b.downscaleOnly = true
	return b
}

// Build validates and returns the scenario. If no delays were set, zero
// delays are installed (useful for pure capacity tests where delay is
// irrelevant).
func (b *Builder) Build() (*Scenario, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.dMS == nil {
		b.dMS = make([][]float64, len(b.agents))
		for i := range b.dMS {
			b.dMS[i] = make([]float64, len(b.agents))
		}
	}
	h := b.h
	if b.hMS != nil {
		var err error
		if h, err = MatrixDelays(b.hMS, len(b.agents), len(b.users)); err != nil {
			return nil, err
		}
	} else if h == nil {
		h = func(AgentID, UserID) float64 { return 0 }
	}
	var opts []ScenarioOption
	if b.downscaleOnly {
		opts = append(opts, WithDownscaleOnly())
	}
	return NewScenario(b.reps, b.users, b.sessions, b.agents, b.dMS, h, b.dMaxMS, opts...)
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}
