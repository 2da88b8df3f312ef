"""Tree ensembles whose output subspace is shared or redrawn per tree.

Two policies mirror the two ways of combining output-space compression with
an ensemble: ``shared_subspace`` realizes one projection and grows every tree
on it; ``per_tree_subspace`` draws a fresh projection for each tree, turning
the projection itself into an extra source of ensemble diversity.
``no_projection`` is the plain baseline.  Predictions are always the average
of leaf vectors in the original label space.

Seed discipline: every generator is ``rng.stream(seed, j)``.  Tree j projects
with ``stream(phi_seed, j)`` and grows with ``stream(eps_seed, t + j)``;
the shared policy uses ``stream(phi_seed, 0)`` for its one map.  A fit seeds
both from ``master_seed``.  This alignment makes single-tree ensembles of both
policies, and identity-projection vs no-projection runs, reproduce each
other exactly.
"""

import json
import time
from dataclasses import MISSING, dataclass, fields

from .data import check_document, check_integer, to_dense
from .projection import ProjectionSpec, generate, pca_projection, project
from .rng import stream
from .tree import Tree, TreeConfig, grow_arrays

POLICIES = ("shared_subspace", "per_tree_subspace", "no_projection")


@dataclass(frozen=True)
class EnsembleConfig:
    t: int
    tree: TreeConfig
    projection: ProjectionSpec = None
    policy: str = "per_tree_subspace"
    master_seed: int = 0

    def __post_init__(self):
        check_integer("t", self.t, 1)
        check_integer("master_seed", self.master_seed, 0)
        if not isinstance(self.tree, TreeConfig):
            raise ValueError("tree must be a TreeConfig, got {!r}".format(self.tree))
        if not isinstance(self.projection, (ProjectionSpec, type(None))):
            raise ValueError("projection must be a ProjectionSpec or None, got {!r}".format(
                self.projection))
        if self.policy not in POLICIES:
            raise ValueError("unknown policy: {!r}".format(self.policy))
        if self.policy != "no_projection" and self.projection is None:
            raise ValueError("policy {!r} needs a projection spec".format(self.policy))
        if self.policy == "no_projection" and self.projection is not None:
            raise ValueError("policy 'no_projection' takes no projection spec, got {!r}".format(
                self.projection))


@dataclass
class FitTiming:
    """Wall-clock split between projection work and tree growth."""

    generate_project_seconds: float
    grow_seconds: float


class Ensemble:
    """A fitted forest plus the projection policy that grew it."""

    FORMAT = "projforest-ensemble"
    VERSION = 1

    def __init__(self, trees, config):
        self.trees = trees
        self.config = config

    @property
    def t(self):
        return len(self.trees)

    @property
    def n_features(self):
        return self.trees[0].n_features

    @property
    def n_outputs(self):
        return self.trees[0].n_outputs

    def predict(self, X):
        """Average of the per-tree leaf vectors, an (n, d) array in [0, 1]
        for binary labels (entries are averaged label frequencies).  X is
        densified and checked (width, finite values) once for all trees."""
        X = self.trees[0].check_rows(X)
        acc = self.trees[0].predict(X, checked=True)
        for tree in self.trees[1:]:
            acc += tree.predict(X, checked=True)
        acc /= self.t
        return acc

    def save(self, path):
        """Write a JSON document: manifest (policy, spec, seeds) plus trees.

        Realized projection matrices are not stored; generated kinds are
        reproducible from the recorded seeds and predictions never need them.
        """
        spec = self.config.projection
        doc = {
            "format": self.FORMAT,
            "version": self.VERSION,
            "policy": self.config.policy,
            "master_seed": int(self.config.master_seed),
            "t": int(self.config.t),
            "tree": {
                "k": int(self.config.tree.k),
                "n_min": int(self.config.tree.n_min),
                "splitter": self.config.tree.splitter,
                "bootstrap": bool(self.config.tree.bootstrap),
            },
            "projection": None
            if spec is None
            else {"kind": spec.kind, "m": int(spec.m), "s": float(spec.s)},
            "trees": [tree.to_dict() for tree in self.trees],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path):
        """Read a document written by :meth:`save`.  A malformed one (a
        missing or unknown field, a field of the wrong type, a tree that is
        not one binary tree) raises a ``ValueError`` naming the field."""
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != cls.FORMAT:
            raise ValueError("not a serialized ensemble document")
        if doc.get("version") != cls.VERSION:
            raise ValueError(
                "unsupported ensemble document version: {!r}".format(doc.get("version"))
            )
        check_document(doc, "ensemble document", _DOC_FIELDS,
                       ("format", "version", *_DOC_FIELDS))
        spec = doc["projection"]
        config = EnsembleConfig(
            t=doc["t"],
            tree=_doc_config(doc["tree"], "tree", TreeConfig),
            projection=None if spec is None else _doc_config(spec, "projection",
                                                             ProjectionSpec),
            policy=doc["policy"],
            master_seed=doc["master_seed"],
        )
        if not isinstance(doc["trees"], list):
            raise ValueError("ensemble document: trees must be a list")
        trees = [Tree.from_dict(td) for td in doc["trees"]]
        if len(trees) != config.t:
            raise ValueError("document declares t={} but holds {} trees".format(
                config.t, len(trees)))
        if len({(tree.n_features, tree.n_outputs) for tree in trees}) != 1:
            raise ValueError("trees disagree on the feature or label count")
        return cls(trees, config)


# The fields of an ensemble document besides its format and version.
_DOC_FIELDS = ("policy", "master_seed", "t", "tree", "projection", "trees")


def _doc_config(doc, name, cls):
    """The config dataclass ``cls`` built from field ``name`` of an ensemble
    document, which must hold each field of ``cls`` without a default and no
    field that ``cls`` lacks."""
    check_document(doc, "ensemble document: " + name,
                   [f.name for f in fields(cls) if f.default is MISSING],
                   [f.name for f in fields(cls)])
    return cls(**doc)


def fit(ds, cfg):
    """Fit an ensemble on a dataset view.  Deterministic given the config."""
    ensemble, _ = _fit_arrays(
        ds.X_rows(), ds.Y_rows(), cfg, cfg.master_seed, cfg.master_seed
    )
    return ensemble


def fit_timed(ds, cfg):
    """Like :func:`fit` but also reports projection vs growth wall time."""
    return _fit_arrays(
        ds.X_rows(), ds.Y_rows(), cfg, cfg.master_seed, cfg.master_seed
    )


def _fit_arrays(X, Y, cfg, phi_seed, eps_seed):
    """Fitting core on raw matrices, with independently seedable projection
    and tree-randomness streams (the nested Monte Carlo harnesses vary one
    while holding the other).  Trees are grown one after another on X
    densified once.  Non-finite X or Y is rejected: Y by every projection
    (PCA included), and X, Y and the split targets by every tree's growth."""
    X = to_dense(X)
    d = Y.shape[1]
    t = cfg.t
    z = None
    tic = time.perf_counter()
    if cfg.policy == "no_projection":
        z = to_dense(Y)
    elif cfg.projection.kind == "pca":
        # Data-dependent and deterministic, so both policies share one map.
        z = project(pca_projection(Y, cfg.projection.m), Y)
    elif cfg.policy == "shared_subspace":
        z = project(generate(cfg.projection, d, stream(phi_seed, 0)), Y)
    proj_time = time.perf_counter() - tic
    grow_time = 0.0
    per_tree = z is None

    trees = []
    for j in range(t):
        if per_tree:
            tic = time.perf_counter()
            z = project(generate(cfg.projection, d, stream(phi_seed, j)), Y)
            proj_time += time.perf_counter() - tic
        tic = time.perf_counter()
        trees.append(grow_arrays(X, Y, z, cfg.tree, stream(eps_seed, t + j)))
        grow_time += time.perf_counter() - tic
    return Ensemble(trees, cfg), FitTiming(proj_time, grow_time)
