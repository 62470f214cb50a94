"""Data substrate: dataset containers, splits, sampling and synthetic workloads.

BlinkML is built on top of a sampling abstraction (the paper's key
observation is that the uniform-sampling operator already offered by nearly
every database system is enough to approximate MLE training).  This
subpackage provides that substrate:

* :mod:`repro.data.dataset` — an immutable in-memory training-set container
  with feature matrix, labels and named splits;
* :mod:`repro.data.splits` — train / holdout / test splitting;
* :mod:`repro.data.sampling` — uniform random sampling without
  replacement, nested so the initial sample is a prefix of the final one;
* :mod:`repro.data.synthetic` — generators that stand in for the six
  real-world datasets used in the paper's evaluation (see that module's
  docstring for the substitution rationale);
* :mod:`repro.data.store` — the out-of-core tier: datasets persisted as
  memory-mapped ``.npy`` shards behind a digested manifest, consumed
  block-by-block by the streaming engine and row-by-index by the samplers.
"""

from repro.data.dataset import Dataset
from repro.data.splits import SplitSpec, train_holdout_test_split
from repro.data.sampling import UniformSampler
from repro.data.store import (
    ShardManifest,
    ShardStore,
    ShardStoreWriter,
    ShardedDataset,
    write_blocks,
)
from repro.data.synthetic import (
    SyntheticSpec,
    gas_like,
    power_like,
    criteo_like,
    higgs_like,
    mnist_like,
    yelp_like,
    bikeshare_like,
    make_dataset,
)

__all__ = [
    "Dataset",
    "SplitSpec",
    "train_holdout_test_split",
    "UniformSampler",
    "ShardManifest",
    "ShardStore",
    "ShardStoreWriter",
    "ShardedDataset",
    "write_blocks",
    "SyntheticSpec",
    "gas_like",
    "power_like",
    "criteo_like",
    "higgs_like",
    "mnist_like",
    "yelp_like",
    "bikeshare_like",
    "make_dataset",
]
