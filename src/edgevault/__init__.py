"""edgevault: confidential-computing toolkit for a two-level edge/cloud
hierarchy.

Hash-chained device identities from sealed elliptic-curve points, verifiable
quasigroup-based 2-of-2 key sharing between edge and cloud, and a
deterministic simulator demonstrating impersonation, tamper, and replay
resistance.
"""

from .bloom import BloomFilter
from .crypto import (
    AeadRecord,
    NonceSequence,
    Timestamp,
    TimestampAuthority,
    aead_cipher,
    aead_decrypt,
    aead_encrypt,
    derive_seed,
    sha256,
    verify_freshness,
)
from .curves import (
    CurvePoint,
    WeierstrassCurve,
    discriminant,
    is_on_curve,
    select_unique_point,
    sqrt_mod,
    standard_curve,
    tiny_curve,
)
from .errors import EdgeVaultError
from .ledger import ChainReport, IdentityLedger, LedgerEntry
from .profiler import FitReport, Sample, detect_outliers, fit_distribution
from .quasigroup import (
    IdentityReport,
    IsotopeQuasigroup,
    Quasigroup,
    generate_quasigroup,
    verify_parastroph_identities,
)
from .securezone import Decision, DistributionResult, ManagedKey, SecureZone
from .shares import (
    PlainShare,
    SealedShare,
    SplitRecord,
    combine_and_verify,
    decode_secret,
    encode_secret,
    seal_share,
    split,
    unseal_share,
)
from .simnet import (
    SimEvent,
    SimScenario,
    SimStep,
    Verdict,
    builtin_scenarios,
    edge_data_split,
    run_scenario,
)

__version__ = "0.1.0"
