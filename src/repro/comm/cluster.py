"""A simulated, step-synchronous cluster of workers.

The paper evaluates SparDL on a physical 14-machine GPU cluster connected by
MPI.  This repository substitutes that testbed with an in-process simulator:
``P`` workers exchange messages through :class:`SimulatedCluster`, one
synchronous round at a time.  The simulator is *not* a performance model by
itself — it executes the real communication algorithms on real gradient data
— but it records exactly the quantities the alpha-beta model needs (rounds
and per-worker received volume) in :class:`repro.comm.stats.CommStats`.

:class:`SimulatedCluster` is the plain in-process
:class:`~repro.comm.transport.Transport`: messages, fault plans and
membership changes all go through the base class, exactly as on the
process-backed :class:`~repro.comm.mp_backend.MultiprocessCluster`, and the
ranks' tasks run on the rank pool of the calling process.

Design notes
------------
* A call to :meth:`SimulatedCluster.exchange` is one synchronous round: all
  messages passed in are considered concurrent, exactly like one step of a
  bulk-synchronous collective.
* Payload sizes are derived automatically
  (:func:`~repro.comm.transport.payload_size`): NumPy arrays count one
  element per entry, sparse gradient mass travels only as
  :class:`~repro.comm.packed.PackedBags` (two elements per non-zero), and
  an explicit size can always be given.
* Workers are plain integer ranks; algorithm state lives in the algorithms
  themselves, which keeps every collective a pure function of its inputs.
"""

from __future__ import annotations

from .transport import Message, Transport, freeze_payload, payload_size

__all__ = ["Message", "SimulatedCluster", "payload_size", "freeze_payload"]


class SimulatedCluster(Transport):
    """``P`` workers connected by a fully-switched, step-synchronous network."""

    spec_name = "sim"
