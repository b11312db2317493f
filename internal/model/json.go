package model

import (
	"encoding/json"
	"fmt"
	"io"
)

// scenarioDoc is the stable on-disk representation of a Scenario. All fields
// are tagged explicitly: the serialized form is a contract.
type scenarioDoc struct {
	Version         int          `json:"version"`
	Representations []RepSpec    `json:"representations"`
	Agents          []agentDoc   `json:"agents"`
	Sessions        []sessionDoc `json:"sessions"`
	Users           []userDoc    `json:"users"`
	DMS             [][]float64  `json:"interAgentDelayMS"`
	HMS             [][]float64  `json:"agentUserDelayMS"`
	DMaxMS          float64      `json:"delayCapMS"`
	DownscaleOnly   bool         `json:"downscaleOnly,omitempty"`
}

type agentDoc struct {
	Name                  string      `json:"name"`
	Site                  string      `json:"site,omitempty"`
	UploadMbps            float64     `json:"uploadMbps"`
	DownloadMbps          float64     `json:"downloadMbps"`
	TranscodeSlots        int         `json:"transcodeSlots"`
	SigmaMS               [][]float64 `json:"sigmaMS"`
	CapabilityFactor      float64     `json:"capabilityFactor"`
	TrafficPricePerMbps   float64     `json:"trafficPricePerMbps"`
	TranscodePricePerTask float64     `json:"transcodePricePerTask"`
}

type sessionDoc struct {
	Name  string   `json:"name,omitempty"`
	Users []UserID `json:"users"`
}

type userDoc struct {
	Name       string                    `json:"name,omitempty"`
	Session    SessionID                 `json:"session"`
	Upstream   Representation            `json:"upstream"`
	Downstream map[UserID]Representation `json:"downstream,omitempty"`
}

// scenarioDocVersion is bumped on incompatible format changes.
const scenarioDocVersion = 1

// WriteJSON serializes the scenario to w as indented JSON.
func (sc *Scenario) WriteJSON(w io.Writer) error {
	doc := scenarioDoc{
		Version:         scenarioDocVersion,
		Representations: make([]RepSpec, 0, sc.Reps.Len()),
		DMS:             sc.DMS,
		HMS:             make([][]float64, len(sc.Agents)),
		DMaxMS:          sc.DMaxMS,
		DownscaleOnly:   sc.DownscaleOnly,
	}
	for l := range doc.HMS {
		doc.HMS[l] = make([]float64, len(sc.Users))
		for u := range doc.HMS[l] {
			doc.HMS[l][u] = sc.H(AgentID(l), UserID(u))
		}
	}
	for _, r := range sc.Reps.All() {
		doc.Representations = append(doc.Representations, sc.Reps.Spec(r))
	}
	for i := range sc.Agents {
		a := &sc.Agents[i]
		doc.Agents = append(doc.Agents, agentDoc{
			Name:                  a.Name,
			Site:                  a.Site,
			UploadMbps:            a.Upload,
			DownloadMbps:          a.Download,
			TranscodeSlots:        a.TranscodeSlots,
			SigmaMS:               a.SigmaMS,
			CapabilityFactor:      a.CapabilityFactor,
			TrafficPricePerMbps:   a.TrafficPricePerMbps,
			TranscodePricePerTask: a.TranscodePricePerTask,
		})
	}
	for i := range sc.Sessions {
		s := &sc.Sessions[i]
		doc.Sessions = append(doc.Sessions, sessionDoc{Name: s.Name, Users: s.Users})
	}
	for i := range sc.Users {
		u := &sc.Users[i]
		doc.Users = append(doc.Users, userDoc{
			Name:       u.Name,
			Session:    u.Session,
			Upstream:   u.Upstream,
			Downstream: u.Downstream,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadJSON deserializes a scenario previously written by WriteJSON, running
// the full NewScenario validation.
func ReadJSON(r io.Reader) (*Scenario, error) {
	var doc scenarioDoc
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("model: decode scenario: %w", err)
	}
	if doc.Version != scenarioDocVersion {
		return nil, fmt.Errorf("model: unsupported scenario version %d (want %d)",
			doc.Version, scenarioDocVersion)
	}
	reps, err := NewRepresentationSet(doc.Representations)
	if err != nil {
		return nil, err
	}
	agents := make([]Agent, len(doc.Agents))
	for i, a := range doc.Agents {
		agents[i] = Agent{
			ID:                    AgentID(i),
			Name:                  a.Name,
			Site:                  a.Site,
			Upload:                a.UploadMbps,
			Download:              a.DownloadMbps,
			TranscodeSlots:        a.TranscodeSlots,
			SigmaMS:               a.SigmaMS,
			CapabilityFactor:      a.CapabilityFactor,
			TrafficPricePerMbps:   a.TrafficPricePerMbps,
			TranscodePricePerTask: a.TranscodePricePerTask,
		}
	}
	sessions := make([]Session, len(doc.Sessions))
	for i, s := range doc.Sessions {
		sessions[i] = Session{ID: SessionID(i), Name: s.Name, Users: s.Users}
	}
	users := make([]User, len(doc.Users))
	for i, u := range doc.Users {
		users[i] = User{
			ID:         UserID(i),
			Name:       u.Name,
			Session:    u.Session,
			Upstream:   u.Upstream,
			Downstream: u.Downstream,
		}
	}
	var opts []ScenarioOption
	if doc.DownscaleOnly {
		opts = append(opts, WithDownscaleOnly())
	}
	h, err := MatrixDelays(doc.HMS, len(agents), len(users))
	if err != nil {
		return nil, err
	}
	return NewScenario(reps, users, sessions, agents, doc.DMS, h, doc.DMaxMS, opts...)
}
