package node

import "mcpaxos/internal/msg"

// MultiHandler fans one node's deliveries out to several colocated agents
// (e.g. a coordinator plus its leader elector). Messages go to every
// sub-handler; timer ticks go to every TimerHandler, burst ends to every
// IdleHandler.
type MultiHandler []Handler

var _ Handler = MultiHandler(nil)
var _ TimerHandler = MultiHandler(nil)
var _ IdleHandler = MultiHandler(nil)

// OnMessage implements Handler.
func (m MultiHandler) OnMessage(from msg.NodeID, mm msg.Message) {
	for _, h := range m {
		h.OnMessage(from, mm)
	}
}

// OnTimer implements TimerHandler.
func (m MultiHandler) OnTimer(tag int) {
	for _, h := range m {
		if th, ok := h.(TimerHandler); ok {
			th.OnTimer(tag)
		}
	}
}

// OnIdle implements IdleHandler.
func (m MultiHandler) OnIdle() {
	for _, h := range m {
		if ih, ok := h.(IdleHandler); ok {
			ih.OnIdle()
		}
	}
}
