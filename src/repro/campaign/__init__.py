"""``repro.campaign`` — parallel, cached experiment campaigns.

The campaign layer turns the repo's ~20 serial experiment runners into
a schedulable matrix: a :class:`CampaignSpec` describes (experiment x
params x seed) cells, a :class:`CampaignExecutor` runs them once each
over one process pool (a failure, a dead worker or the campaign-wide
timeout marks runs ``FAILED`` and says why), a content-addressed
:class:`ResultCache` skips everything whose spec and source digest are
unchanged, and a :class:`CampaignStore` leaves a machine-readable
artifact trail (``manifest.json`` + ``runs.jsonl`` + payloads).

A pleasing echo of the paper itself: a campaign-level scheduler
dispatching simulations that each *contain* a scheduler.

Quick start::

    from repro.campaign import CampaignExecutor, ResultCache, builtin_campaign
    result = CampaignExecutor(jobs=4).run(builtin_campaign("paper-quick"))
    print(result.summary())

or from the CLI::

    repro-hpcsched campaign run paper-full --jobs 4
"""

from repro.campaign.cache import ResultCache, source_digest
from repro.campaign.executor import (
    CampaignConsistencyError,
    CampaignExecutor,
    CampaignResult,
    execute_runspec,
)
from repro.campaign.report import ProgressPrinter, render_report, render_status
from repro.campaign.spec import (
    BUILTIN_CAMPAIGNS,
    CampaignSpec,
    RunSpec,
    builtin_campaign,
    canonical_json,
    expand_matrix,
    invoke,
    result_from_payload,
    summarize_result,
)
from repro.campaign.store import (
    STATUS_FAILED,
    STATUS_OK,
    CampaignStore,
    RunRecord,
)

__all__ = [
    "BUILTIN_CAMPAIGNS",
    "CampaignConsistencyError",
    "CampaignExecutor",
    "CampaignResult",
    "CampaignSpec",
    "CampaignStore",
    "ProgressPrinter",
    "ResultCache",
    "RunRecord",
    "RunSpec",
    "STATUS_FAILED",
    "STATUS_OK",
    "builtin_campaign",
    "canonical_json",
    "execute_runspec",
    "expand_matrix",
    "invoke",
    "render_report",
    "render_status",
    "result_from_payload",
    "source_digest",
    "summarize_result",
]
