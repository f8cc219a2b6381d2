"""The deterministic work-scheduling layer over the worker pool.

Two fan-outs live here:

- :class:`ParallelEngine` — signature verification for the relying party.
  Before each validation pass, :meth:`ParallelEngine.precompute` walks the
  cache snapshot structurally (an over-approximation of the walk
  :class:`~repro.rp.PathValidator` is about to do), collects every
  signature check the pass could need, **deduplicates them through the
  content-addressed verification memo**, and dispatches only the novel
  ones to the pool in ordered batches.  The validator then runs its
  ordinary serial algorithm and finds every verdict already memoized.
  Because a verification verdict is a pure function of ``(key, message,
  signature)``, precomputing extra verdicts — or computing them in a
  different order, or in another process — cannot change any validation
  outcome: ``RelyingParty(workers=N)`` output is equal to the serial
  path's for every ``N``.

- :func:`prefill_keys` — keypair generation for
  :func:`repro.modelgen.build_deployment`.  A :class:`~repro.crypto.KeyFactory`
  derives an independent RNG stream per key index, so the next *n* keys of
  a factory's sequence are *n* independent jobs; the pool generates them
  in any order and the factory adopts each at its index, leaving the
  build byte-identical to the serial one.

When no :class:`~repro.rp.incremental.IncrementalState` is attached the
engine is also the validator's *memo provider*: its parse and
verification memos last one refresh.  Replaying publication points
within a refresh is the job of the relying party's refresh-scoped point
table (see :meth:`repro.rp.PathValidator.run`), shared by every engine
mode; the engine is a memo pre-pass only.
"""

from __future__ import annotations

from ..crypto import RsaPublicKey
from ..crypto.keys import KeyFactory
from ..crypto.rsa import record_keygens, record_verifications
from ..repository.uri import RsyncUri
from ..rpki.cert import ResourceCertificate
from ..rpki.crl import Crl
from ..rpki.ghostbusters import GhostbustersRecord
from ..rpki.manifest import Manifest
from ..rpki.objects import SignedObject
from ..rpki.roa import Roa
from ..telemetry import MetricsRegistry, default_registry
from .jobs import KeygenJob, verify_job_for
from .pool import WorkerPool
from .worker import keygen_batch, verify_batch

__all__ = ["ParallelEngine", "prefill_keys"]


class _OwnedMemos:
    """Run-scoped memos for an engine with no IncrementalState attached."""

    def __init__(self):
        # Deferred import: repro.rp imports repro.parallel at module load,
        # so the reverse edge must not run until instances are built.
        from ..rp.incremental import ParseMemo, VerificationMemo

        self.verify_memo = VerificationMemo(max_entries=None)
        self.parse_memo = ParseMemo(max_entries=None)


class ParallelEngine:
    """Collects, deduplicates, and pool-dispatches verification work.

    Parameters
    ----------
    state:
        An object exposing ``verify_memo`` / ``parse_memo`` (in practice
        an :class:`~repro.rp.incremental.IncrementalState`) whose memos
        the engine shares — precomputed verdicts land where the
        incremental validator will look for them.  ``None`` gives the
        engine private memos that last one refresh.
    metrics:
        Registry for the dispatch counters (``None`` → process default).

    Lifecycle: the owning relying party opens a :class:`WorkerPool` per
    refresh and brackets the refresh with :meth:`begin_refresh` /
    :meth:`end_refresh`; :meth:`precompute` runs before every validation
    pass of the discovery loop.
    """

    def __init__(
        self,
        state=None,
        *,
        metrics: MetricsRegistry | None = None,
    ):
        self._owns_memos = state is None
        self._state = _OwnedMemos() if state is None else state
        self._pool: WorkerPool | None = None
        # Minimum pending verify jobs before a dispatch; flushes happen on
        # publication-point boundaries so chunks always hold whole points.
        self.chunk_jobs = 2048
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_jobs = self.metrics.counter(
            "repro_parallel_jobs_total",
            help="jobs dispatched to the worker pool, by kind",
            labelnames=("kind",),
        )
        self._m_deduped = self.metrics.counter(
            "repro_parallel_jobs_deduped_total",
            help="verification jobs skipped because the content-addressed "
                 "memo already held the verdict",
        )

    # -- refresh lifecycle ---------------------------------------------------

    def begin_refresh(self, pool: WorkerPool) -> None:
        """Attach the refresh's pool and reset the refresh-scoped memos."""
        self._pool = pool
        if self._owns_memos:
            self._state = _OwnedMemos()

    def end_refresh(self) -> None:
        """Detach from the (about to close) pool."""
        self._pool = None

    # -- the batch pre-pass --------------------------------------------------

    def precompute(
        self,
        trust_anchors: list[ResourceCertificate],
        cache_files: dict[str, dict[str, bytes]],
    ) -> int:
        """Batch-verify everything the next validation pass could need.

        Walks the certificate hierarchy through *cache_files* the way the
        validator will — trust anchors, their publication points, child
        certificates, recursively — but **optimistically**: no validity,
        revocation, or resource checks, just "which (object, key) pairs
        might get verified".  Over-approximation is safe (a verdict is
        pure; an unused one is merely wasted) and under-approximation is
        harmless (the validator falls back to an in-process check on a
        memo miss).

        Work is dispatched in **chunks aligned to publication-point
        boundaries** (at least :attr:`chunk_jobs` jobs per dispatch): at
        Internet scale a single all-points job list would hold hundreds
        of thousands of serialized (object, key) pairs at once, so the
        pending list is flushed to the pool point-by-point and peak job
        memory stays bounded regardless of snapshot size.  Returns the
        number of jobs dispatched.
        """
        if self._pool is None:
            raise RuntimeError("precompute() outside begin_refresh()")
        verify_memo = self._state.verify_memo
        jobs = []
        pending: list[tuple[SignedObject, RsaPublicKey]] = []
        queued: set = set()
        deduped = 0
        dispatched = 0

        def want(obj: SignedObject, key: RsaPublicKey) -> None:
            nonlocal deduped
            memo_key = (obj.hash_hex, key.cache_key)
            if memo_key in queued or verify_memo.contains(obj, key):
                deduped += 1
                return
            queued.add(memo_key)
            jobs.append(verify_job_for(obj, key))
            pending.append((obj, key))

        def flush() -> None:
            nonlocal dispatched
            if not jobs:
                return
            verdicts = self._pool.map_batches(verify_batch, jobs)
            accepted = sum(1 for verdict in verdicts if verdict)
            for (obj, key), verdict in zip(pending, verdicts):
                verify_memo.record(obj, key, verdict)
            # Workers ran uninstrumented; credit their work here, in the
            # parent, so repro_crypto_verify_total keeps its meaning.
            record_verifications(accepted, len(verdicts) - accepted)
            self._m_jobs.inc(len(jobs), kind="verify")
            dispatched += len(jobs)
            jobs.clear()
            pending.clear()

        seen: set[str] = set()
        stack: list[ResourceCertificate] = []
        for anchor in trust_anchors:
            want(anchor, anchor.subject_key)
            stack.append(anchor)
        while stack:
            ca_cert = stack.pop()
            if ca_cert.subject_key_id in seen:
                continue
            seen.add(ca_cert.subject_key_id)
            ca_key = ca_cert.subject_key
            for raw_uri in ca_cert.all_publication_uris:
                files = cache_files.get(str(RsyncUri.parse(raw_uri)))
                if not files:
                    continue
                for file_name in sorted(files):
                    try:
                        obj = self.parse(files[file_name])
                    except Exception:
                        continue  # never verified; nothing to precompute
                    if isinstance(obj, (Manifest, Crl)):
                        want(obj, ca_key)
                    elif isinstance(obj, ResourceCertificate):
                        if obj.issuer_key_id == ca_cert.subject_key_id:
                            want(obj, ca_key)
                            stack.append(obj)
                    elif isinstance(obj, (Roa, GhostbustersRecord)):
                        ee = obj.ee_cert
                        if ee.issuer_key_id == ca_cert.subject_key_id:
                            want(ee, ca_key)
                            want(obj, ee.subject_key)
            # One publication point fully collected: flush once enough
            # work has accumulated.  Chunks therefore hold whole points.
            if len(jobs) >= self.chunk_jobs:
                flush()

        flush()
        if deduped:
            self._m_deduped.inc(deduped)
        return dispatched

    # -- the memo-provider protocol (PathValidator duck-types this) ----------

    def verify_object(self, obj: SignedObject, key: RsaPublicKey) -> bool:
        """Memoized signature check (misses verify in-process)."""
        return self._state.verify_memo.verify_object(obj, key)

    def parse(self, data: bytes) -> SignedObject:
        """Memoized parse."""
        return self._state.parse_memo.parse(data)


def prefill_keys(factory: KeyFactory, count: int, pool: WorkerPool) -> int:
    """Generate the next *count* keys of *factory*'s sequence via *pool*.

    Only indices absent from the factory's process-wide cache become
    jobs; each job carries its index's independent stream seed, so the
    generated keys are bit-identical to what serial
    :meth:`~repro.crypto.KeyFactory.next_keypair` calls would produce.
    Returns the number of keypairs actually generated.
    """
    missing = factory.missing_indices(count)
    if not missing:
        return 0
    jobs = [
        KeygenJob(bits=factory.bits, stream_seed=factory.stream_seed(index))
        for index in missing
    ]
    keys = pool.map_batches(keygen_batch, jobs)
    for index, private in zip(missing, keys):
        factory.adopt(index, private)
    record_keygens(len(missing))
    pool.metrics.counter(
        "repro_parallel_jobs_total",
        help="jobs dispatched to the worker pool, by kind",
        labelnames=("kind",),
    ).inc(len(missing), kind="keygen")
    return len(missing)
