"""The Finder: XRL broker (paper §6.2) and security gatekeeper (paper §7).

    "When a component is created within a process, it instantiates a
    receiving point for the relevant XRL protocol families, and then
    registers this with the Finder.  The registration includes a component
    class, such as 'bgp'; a unique component instance name; and whether or
    not the caller expects to be the sole instance of a particular
    component class."

The Finder:

* resolves generic XRLs (``finder://bgp/...``) into concrete transports;
* embeds a 16-byte random key in every resolved method name, so processes
  cannot bypass resolution (and hence access control);
* invalidates client resolution caches when registrations change;
* provides component lifetime notification ("birth"/"death" watches);
* enforces per-caller ACLs: which targets and which XRLs a component may
  resolve (the Router Manager installs these, paper §7).
"""

from __future__ import annotations

import fnmatch
import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.xrl.error import XrlError, XrlErrorCode

#: lifetime notification events
BIRTH = "birth"
DEATH = "death"
#: the third kind of event ``finder/1.0 next_events`` carries to another
#: OS process: forget what you resolved for this target
INVALIDATE = "invalidate"

WatchCallback = Callable[[str, str, str], None]  # (event, class, instance)

#: what a resolution is: (keyed method, [(family, address), ...], class)
Resolution = Tuple[str, List[Tuple[str, str]], str]
#: how ``resolve_async`` answers: (error, None) or (None, resolution)
ResolveDone = Callable[[Optional[XrlError], Optional[Resolution]], None]

#: The access key of the Finder's own XRL target (class ``finder``): a
#: process reaches the Finder before it can resolve anything, so this one
#: key is well known rather than the outcome of a resolution.
FINDER_KEY = "f" * 32


class _ComponentEntry:
    __slots__ = ("class_name", "instance_name", "singleton", "key",
                 "addresses", "methods", "secret", "enabled")

    def __init__(self, class_name: str, instance_name: str, singleton: bool,
                 key: str, addresses: Dict[str, str], secret: str):
        self.class_name = class_name
        self.instance_name = instance_name
        self.singleton = singleton
        self.key = key
        self.addresses = dict(addresses)
        self.methods: Set[str] = set()
        self.secret = secret
        self.enabled = True


class _Acl:
    __slots__ = ("allowed_targets", "allowed_xrls")

    def __init__(self, allowed_targets: Optional[Set[str]],
                 allowed_xrls: Optional[Set[str]]):
        self.allowed_targets = allowed_targets  # None = unrestricted
        self.allowed_xrls = allowed_xrls        # glob patterns over method paths

    def permits(self, target_class: str, method_path: str) -> bool:
        if self.allowed_targets is not None and target_class not in self.allowed_targets:
            return False
        if self.allowed_xrls is not None:
            return any(
                fnmatch.fnmatchcase(method_path, pattern)
                for pattern in self.allowed_xrls
            )
        return True


class Finder:
    """Broker for component registration, resolution, and lifetime events."""

    def __init__(self, rng: Optional[random.Random] = None):
        # Access keys need only be unguessable by *components*, which never
        # see the Finder's rng; a fixed default seed keeps every simulation
        # run replayable.  Real deployments pass an entropy-seeded Random.
        self._rng = rng if rng is not None else random.Random(0x5eed)
        self._instances: Dict[str, _ComponentEntry] = {}
        self._classes: Dict[str, List[str]] = {}
        self._watches: Dict[str, List[Tuple[str, WatchCallback]]] = {}
        self._acls: Dict[str, _Acl] = {}
        self._resolver_clients: Dict[str, Set] = {}  # class -> routers to invalidate
        self._instance_counter: Dict[str, int] = {}

    # -- registration ---------------------------------------------------
    def register_component(self, class_name: str, *,
                           instance_name: Optional[str] = None,
                           singleton: bool = False,
                           addresses: Dict[str, str],
                           key: Optional[str] = None,
                           methods: Sequence[str] = ()
                           ) -> Tuple[str, str, str]:
        """Register a component; return ``(instance_name, key, secret)``.

        *key* is the 16-byte random access key embedded in resolved method
        names; *secret* authenticates the component in later Finder calls.
        ``finder/1.0 register_target`` passes the *key* a remote component
        picked and its *methods*, so BIRTH finds the method set complete.
        """
        existing = self._classes.get(class_name, [])
        if singleton and existing:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                f"component class {class_name!r} already has an instance",
            )
        if existing and any(self._instances[i].singleton for i in existing):
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                f"component class {class_name!r} is registered as singleton",
            )
        if instance_name is None:
            count = self._instance_counter.get(class_name, 0) + 1
            self._instance_counter[class_name] = count
            instance_name = f"{class_name}-{count}"
        if instance_name in self._instances:
            raise XrlError(
                XrlErrorCode.COMMAND_FAILED,
                f"instance name {instance_name!r} already registered",
            )
        if class_name == "finder":
            key = FINDER_KEY
        elif key is None:
            key = "%032x" % self._rng.getrandbits(128)
        secret = "%032x" % self._rng.getrandbits(128)
        entry = _ComponentEntry(class_name, instance_name, singleton, key,
                                addresses, secret)
        entry.methods.update(methods)
        self._instances[instance_name] = entry
        self._classes.setdefault(class_name, []).append(instance_name)
        self._invalidate(class_name)
        self._notify(class_name, instance_name, BIRTH)
        return instance_name, key, secret

    def add_methods(self, instance_name: str, secret: str,
                    method_paths: List[str]) -> None:
        """Declare methods (``interface/version/method``) for a component."""
        entry = self._auth(instance_name, secret)
        entry.methods.update(method_paths)
        self._invalidate(entry.class_name)

    def deregister_component(self, instance_name: str, secret: str) -> None:
        entry = self._auth(instance_name, secret)
        del self._instances[instance_name]
        siblings = self._classes.get(entry.class_name, [])
        if instance_name in siblings:
            siblings.remove(instance_name)
        if not siblings:
            self._classes.pop(entry.class_name, None)
        self._invalidate(entry.class_name)
        self._notify(entry.class_name, instance_name, DEATH)

    def _auth(self, instance_name: str, secret: str) -> _ComponentEntry:
        entry = self._instances.get(instance_name)
        if entry is None:
            raise XrlError(
                XrlErrorCode.RESOLVE_FAILED, f"no component {instance_name!r}"
            )
        if entry.secret != secret:
            raise XrlError(
                XrlErrorCode.ACCESS_DENIED,
                f"bad secret for component {instance_name!r}",
            )
        return entry

    # -- resolution -------------------------------------------------------
    def resolve(self, caller, target: str, method_path: str) -> Resolution:
        """Resolve (*target*, *method_path*) for *caller* (an XrlRouter).

        Returns ``(resolved_method, [(family, address), ...], target_class)``
        where *resolved_method* is ``<key>/<method_path>``.  Raises
        RESOLVE_FAILED / ACCESS_DENIED.
        """
        entry = self._lookup_target(target)
        caller_name = getattr(caller, "instance_name", str(caller))
        acl = self._acls.get(caller_name)
        if acl is not None and not acl.permits(entry.class_name, method_path):
            raise XrlError(
                XrlErrorCode.ACCESS_DENIED,
                f"{caller_name} may not call {entry.class_name}/{method_path}",
            )
        if entry.methods and method_path not in entry.methods:
            raise XrlError(
                XrlErrorCode.RESOLVE_FAILED,
                f"{target!r} has no method {method_path!r}",
            )
        # Track the caller so a later (de)registration invalidates its cache.
        if hasattr(caller, "finder_cache_invalidate"):
            self.remember_resolver_client(caller, entry.class_name, target)
        resolved_method = f"{entry.key}/{method_path}"
        candidates = sorted(entry.addresses.items())
        return resolved_method, candidates, entry.class_name

    def resolve_async(self, caller, target: str, method_path: str,
                      done: ResolveDone) -> None:
        """:meth:`resolve`, answered through *done(error, resolution)* —
        the form :class:`~repro.xrl.router.XrlRouter` calls, whichever side
        of a process boundary its Finder is on.  This one knows the answer
        at once: *done* has run by the time the call returns."""
        try:
            resolution = self.resolve(caller, target, method_path)
        except XrlError as error:
            done(error, None)
        else:
            done(None, resolution)

    def _lookup_target(self, target: str) -> _ComponentEntry:
        entry = self._instances.get(target)
        if entry is not None and entry.enabled:
            return entry
        instances = self._classes.get(target, [])
        for instance_name in instances:
            candidate = self._instances[instance_name]
            if candidate.enabled:
                return candidate
        raise XrlError(
            XrlErrorCode.RESOLVE_FAILED, f"no such XRL target {target!r}"
        )

    def known_target(self, target: str) -> bool:
        try:
            self._lookup_target(target)
            return True
        except XrlError:
            return False

    def class_instances(self, class_name: str) -> List[str]:
        return list(self._classes.get(class_name, []))

    def classes(self) -> List[str]:
        """Every component class with a live instance, sorted."""
        return sorted(self._classes)

    def _invalidate(self, class_name: str) -> None:
        for router in list(self._resolver_clients.get(class_name, ())):
            router.finder_cache_invalidate(class_name)

    def remember_resolver_client(self, client, *targets: str) -> None:
        """Invalidate *client* when a registration under *targets* changes."""
        for target in targets:
            self._resolver_clients.setdefault(target, set()).add(client)

    def forget_resolver_client(self, client) -> None:
        """Drop *client* from every invalidation set (its process died)."""
        for clients in self._resolver_clients.values():
            clients.discard(client)

    # -- lifetime notification ---------------------------------------------
    def watch(self, watcher_name: str, class_name: str,
              callback: WatchCallback) -> None:
        """Call *callback(event, class, instance)* on birth/death of a class.

        If instances already exist, a birth event fires immediately for
        each, so watchers need no separate bootstrap query.
        """
        self._watches.setdefault(class_name, []).append((watcher_name, callback))
        for instance_name in self._classes.get(class_name, []):
            callback(BIRTH, class_name, instance_name)

    def unwatch(self, watcher_name: str, class_name: str) -> None:
        entries = self._watches.get(class_name, [])
        self._watches[class_name] = [
            (name, cb) for name, cb in entries if name != watcher_name
        ]

    def _notify(self, class_name: str, instance_name: str, event: str) -> None:
        for __, callback in list(self._watches.get(class_name, [])):
            callback(event, class_name, instance_name)

    # -- access control (paper §7) -----------------------------------------
    def set_acl(self, instance_name: str, *,
                allowed_targets: Optional[Set[str]] = None,
                allowed_xrls: Optional[Set[str]] = None) -> None:
        """Restrict what *instance_name* may resolve.

        ``allowed_targets`` is a set of component classes; ``allowed_xrls``
        a set of glob patterns over ``interface/version/method`` paths.
        None leaves that dimension unrestricted.  "Only these permitted
        XRLs will be resolved; the random XRL key prevents bypassing the
        Finder."
        """
        self._acls[instance_name] = _Acl(
            set(allowed_targets) if allowed_targets is not None else None,
            set(allowed_xrls) if allowed_xrls is not None else None,
        )
