"""Campaign orchestration: shared-pool scheduling, content-addressed
result caching, and resumable Monte-Carlo sweeps.

The paper's evaluation is a grid of (model × application × parameter)
cells at up to 1000 replications each.  This subsystem flattens such a
grid into a plan of replication shards, executes them on **one** shared
process pool with dynamic scheduling, and persists every cell's
aggregate to an on-disk store keyed by a content hash of its full
configuration — so re-running a campaign is incremental and an
interrupted one resumes from the last completed cell.  See
``docs/CAMPAIGN.md``.
"""

from .plan import (
    CampaignPlan,
    CellSpec,
    WorkUnit,
    canonical_config,
    content_key,
)
from .progress import CampaignProgress
from .scheduler import CampaignExecutionError, run_campaign
from .store import (
    SCHEMA_VERSION,
    ResultStore,
    StoredResult,
    StoreSchemaError,
    result_from_dict,
    result_to_dict,
    status_payload,
)

__all__ = [
    "CampaignPlan",
    "CellSpec",
    "WorkUnit",
    "canonical_config",
    "content_key",
    "CampaignProgress",
    "CampaignExecutionError",
    "run_campaign",
    "SCHEMA_VERSION",
    "ResultStore",
    "StoredResult",
    "StoreSchemaError",
    "result_to_dict",
    "result_from_dict",
    "status_payload",
]
