"""The Finder as an XRL target.

    "There is also a special Finder protocol family permitting the Finder
    to be addressable through XRLs, just as any other XORP component."
    (paper §6.3)

:class:`FinderTarget` wraps a :class:`~repro.xrl.finder.Finder` in the
``finder/1.0`` XRL interface — the only way a Finder is reached from
another OS process.  Management tools resolve XRLs and list targets
through it (the paper's example: ``finder://bgp/...`` →
``stcp://192.1.2.3:16878/...``); the children of a multi-process
deployment register, resolve, watch and hear events through it
(:class:`~repro.xrl.finder_client.RemoteFinder`), reaching it at its
``stcp`` listener address under the well-known
:data:`~repro.xrl.finder.FINDER_KEY`.

A *session* is the connection a request arrived on.  It is the liveness
lease — when it ends, what it watched and registered is dropped, inside
the I/O callback that saw it end — and the owner: only the session that
registered a component may speak for it.  DESIGN.md, "Finder over XRL".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.finder import INVALIDATE, Finder
from repro.xrl.router import DeferredReply, XrlRouter
from repro.xrl.xrl import Xrl

# The finder/1.0 IDL is declared in the central catalogue
# (repro.interfaces) alongside every other inter-process API.
from repro.interfaces import FINDER_IDL, txt_atoms, txt_values


class _Session:
    """What one connection holds at the Finder; also the Finder's watcher
    and cache-invalidation client for everything behind that connection."""

    def __init__(self, channel):
        self.channel = channel
        #: the components it registered, in order: instance name -> secret
        self.components: Dict[str, str] = {}
        self.watched: Set[str] = set()
        #: (kind, class, instance) not yet delivered
        self.events: List[Tuple[str, str, str]] = []
        #: the parked ``next_events``
        self.poll: Optional[DeferredReply] = None

    def push(self, kind: str, class_name: str, instance_name: str) -> None:
        """Queue one event (a Finder watch callback); a parked poll is
        answered on the spot."""
        self.events.append((kind, class_name, instance_name))
        if self.poll is not None:
            poll, self.poll = self.poll, None
            poll.reply(self.take())

    def finder_cache_invalidate(self, target: str) -> None:
        self.push(INVALIDATE, target, "")

    def take(self) -> dict:
        events, self.events = self.events, []
        kinds, classes, instances = zip(*events) if events else ((), (), ())
        return {"kinds": txt_atoms("kind", kinds),
                "classes": txt_atoms("class", classes),
                "instances": txt_atoms("instance", instances)}


class FinderTarget:
    """Binds the finder/1.0 interface onto a router for *finder*."""

    def __init__(self, finder: Finder, router: XrlRouter):
        self.finder = finder
        self.router = router
        #: connection -> session, for every connection that asked for one
        self._sessions: Dict[object, _Session] = {}
        router.bind(FINDER_IDL, self)

    @property
    def address(self) -> Optional[str]:
        """The bootstrap address: where this target listens over TCP."""
        return self.router.listen_address("stcp")

    # -- finder/1.0, for anyone ---------------------------------------------
    def xrl_resolve_xrl(self, xrl: str) -> dict:
        """Resolve textual XRL to its concrete transport form(s)."""
        generic = Xrl.from_text(xrl)
        resolved_method, candidates, __ = self.finder.resolve(
            self.router, generic.target, generic.method_path)
        forms = []
        for family, address in candidates:
            arg_text = generic.args.to_text()
            base = f"{family}://{address}/{resolved_method}"
            forms.append(f"{base}?{arg_text}" if arg_text else base)
        if not forms:
            raise XrlError(
                XrlErrorCode.RESOLVE_FAILED,
                f"no transport addresses registered for {generic.target!r}",
            )
        return {"resolved": "\n".join(forms)}

    def xrl_get_target_list(self) -> dict:
        return {"targets": ",".join(self.finder.classes())}

    def xrl_get_class_instances(self, class_name: str) -> dict:
        instances = self.finder.class_instances(class_name)
        return {"instances": ",".join(instances)}

    def xrl_target_exists(self, target: str) -> dict:
        return {"exists": self.finder.known_target(target)}

    # -- sessions -------------------------------------------------------------
    def _session(self, owner: Optional[str] = None) -> _Session:
        """The calling connection's session, opened on first use — which
        must have registered *owner*, when one is named: a component is
        spoken for by its own session only."""
        channel = self.router.dispatch_channel
        if channel is None:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                "a Finder session is a connection: call over stcp")
        session = self._sessions.get(channel)
        if session is None:
            session = self._sessions[channel] = _Session(channel)
            channel.on_close = lambda: self._end(channel)
        if owner is not None and owner not in session.components:
            raise XrlError(
                XrlErrorCode.ACCESS_DENIED,
                f"{owner!r} is not registered on this session")
        return session

    def _end(self, channel) -> None:
        """Connection death == component death (the liveness lease)."""
        session = self._sessions.pop(channel)
        finder = self.finder
        for class_name in session.watched:
            finder.unwatch(session, class_name)
        finder.forget_resolver_client(session)
        # Last registered first (dependents before what they depend on);
        # each fires the DEATH notifications supervision relies on.
        while session.components:
            finder.deregister_component(*session.components.popitem())

    # -- finder/1.0, for the calling session ----------------------------------
    def xrl_register_target(self, class_name: str, instance_name: str,
                            singleton: bool, key: str, families: list,
                            addresses: list, methods: list) -> None:
        session = self._session()
        if not instance_name or not key or "/" in key:
            raise XrlError(XrlErrorCode.BAD_ARGS, "register_target: needs "
                           "an instance name and a key without '/'")
        family_names, listen_addresses = txt_values(
            "register_target", families, addresses)
        (method_paths,) = txt_values("register_target", methods)
        __, __key, secret = self.finder.register_component(
            class_name, instance_name=instance_name, singleton=singleton,
            addresses=dict(zip(family_names, listen_addresses)),
            key=key, methods=method_paths)
        if session.channel.alive:
            session.components[instance_name] = secret
        else:  # announcing the birth to this very connection found it dead
            self.finder.deregister_component(instance_name, secret)

    def xrl_add_methods(self, instance_name: str, methods: list) -> None:
        session = self._session(instance_name)
        (method_paths,) = txt_values("add_methods", methods)
        self.finder.add_methods(
            instance_name, session.components[instance_name], method_paths)

    def xrl_deregister_target(self, instance_name: str) -> None:
        secret = self._session(instance_name).components.pop(instance_name)
        self.finder.deregister_component(instance_name, secret)

    def xrl_resolve(self, caller: str, target: str, method_path: str) -> dict:
        session = self._session(caller)
        # The caller's name picks the ACL; the session is what hears when
        # the answer stops being true.
        resolved_method, candidates, target_class = self.finder.resolve(
            caller, target, method_path)
        self.finder.remember_resolver_client(session, target_class, target)
        families, addresses = zip(*candidates) if candidates else ((), ())
        return {"resolved_method": resolved_method,
                "families": txt_atoms("family", families),
                "addresses": txt_atoms("address", addresses),
                "target_class": target_class}

    def xrl_watch(self, class_name: str) -> None:
        session = self._session()
        if class_name not in session.watched:
            session.watched.add(class_name)
            self.finder.watch(session, class_name, session.push)

    def xrl_unwatch(self, class_name: str) -> None:
        session = self._session()
        session.watched.discard(class_name)
        self.finder.unwatch(session, class_name)

    def xrl_next_events(self):
        session = self._session()
        if session.events:
            return session.take()
        session.poll = DeferredReply()  # one per session: a second replaces it
        return session.poll


def bind_finder_target(host) -> FinderTarget:
    """Expose *host*'s Finder as the XRL target class ``finder``.

    Creates a dedicated process-less router owned by the host; a
    singleton, so nothing a session registers can pass for the Finder.
    """
    router = XrlRouter(host.loop, "finder", host.finder, singleton=True,
                       families=list(host.families))
    return FinderTarget(host.finder, router)
