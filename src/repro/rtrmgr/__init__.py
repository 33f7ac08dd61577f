"""The Router Manager (paper §3).

    "The 'Router Manager' holds the router configuration and starts,
    configures, and stops protocols and other router functionality.  It
    hides the router's internal structure from the user, providing
    operators with unified management interfaces for examination and
    reconfiguration."

Pieces:

* :mod:`repro.rtrmgr.template` — template files define the configuration
  schema (the mechanism §8.3 says dynamically extends the CLI language);
* :mod:`repro.rtrmgr.config_tree` — the configuration tree, validated
  against the template, rendered/parsed in braces syntax;
* :mod:`repro.rtrmgr.modules` — one ``ModuleSpec`` per module: how it
  runs, what calls for it, its ACL, dependencies and translator;
* :mod:`repro.rtrmgr.translate` — the commit as a pure function:
  ``(old tree, new tree)`` → the ordered XRLs that turn one into the other;
* :mod:`repro.rtrmgr.launcher` — how a module comes to exist: a factory
  call in this interpreter, or ``python -m repro.<module>`` as an OS
  process.  The one thing a deployment chooses;
* :mod:`repro.rtrmgr.rtrmgr` — the one Router Manager: starts the modules
  a configuration needs through its launcher, installs their Finder ACLs
  (paper §7), sends the translation, and restarts a module by replaying
  the part of the committed translation addressed to it
  (:mod:`repro.rtrmgr.spawn` is the same manager with the process
  launcher selected);
* :mod:`repro.rtrmgr.supervisor` — the watchdog consuming Finder
  birth/death watches: pings modules, flushes a dead module's RIB
  routes, and restarts it with backoff and a storm budget (paper §3);
* :mod:`repro.rtrmgr.cli` — a small scriptable command-line interface.
"""

from repro.rtrmgr.cli import Cli
from repro.rtrmgr.config_tree import CommitError, ConfigError, ConfigTree
from repro.rtrmgr.rtrmgr import RouterManager
from repro.rtrmgr.supervisor import Supervisor, SupervisorPolicy
from repro.rtrmgr.template import TemplateError, TemplateNode, parse_template

__all__ = [
    "Cli",
    "CommitError",
    "ConfigError",
    "ConfigTree",
    "RouterManager",
    "Supervisor",
    "SupervisorPolicy",
    "TemplateError",
    "TemplateNode",
    "parse_template",
]
