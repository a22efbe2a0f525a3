package core

import (
	"appx/internal/proxy"
)

// NewProxy instantiates the acceleration proxy from the artifacts.
func (a *Artifacts) NewProxy(up proxy.Upstream, workers int) *proxy.Proxy {
	return proxy.New(proxy.Options{
		Graph:    a.Graph,
		Config:   a.Config,
		Upstream: up,
		Workers:  workers,
	})
}
