"""Analysis engines over WhoWas measurement data (§5, §8)."""

from .cartography import Cartographer, CartographyMap, VpcUsageAnalyzer
from .aggregates import AggregateReport, build_aggregate_report
from .census import (
    CensusReport,
    SoftwareCensus,
    SshCensus,
    SshCensusReport,
    server_family,
)
from .clustering import (
    Cluster,
    ClusteringResult,
    ClusterStats,
    WebpageClusterer,
)
from .crosscloud import (
    CrossCloudMatch,
    CrossCloudOverlap,
    find_cross_cloud_clusters,
)
from .dataset import Dataset, Observation
from .domains import CorrelationReport, DomainCorrelation, DomainCorrelator
from .dynamics import ChurnRates, DynamicsAnalyzer, SeriesSummary
from .evaluation import ClusteringScore, score_clustering
from .export import FigureExporter
from .gap_statistic import cluster_by_threshold, select_threshold
from .lsh import SimhashIndex, band_layout
from .malicious import (
    MaliciousIp,
    SafeBrowsingAnalyzer,
    SafeBrowsingFindings,
    VirusTotalAnalyzer,
    VirusTotalFindings,
)
from .patterns import (
    PatternAnalyzer,
    PatternBreakdown,
    merge_repeats,
    paa_reduce,
    size_change_pattern,
    tendency_vector,
)
from .regions import RegionAnalyzer, RegionUsage
from .trackers import (
    GaAccountStats,
    TrackerAnalyzer,
    TrackerHits,
    analyze_ga_accounts,
)
from .uptime import ClusterUsage, UptimeAnalyzer

__all__ = [
    "Cartographer",
    "CartographyMap",
    "VpcUsageAnalyzer",
    "AggregateReport",
    "build_aggregate_report",
    "CensusReport",
    "SshCensus",
    "SshCensusReport",
    "SoftwareCensus",
    "server_family",
    "Cluster",
    "ClusteringResult",
    "ClusterStats",
    "WebpageClusterer",
    "CrossCloudMatch",
    "CrossCloudOverlap",
    "find_cross_cloud_clusters",
    "Dataset",
    "Observation",
    "ChurnRates",
    "ClusteringScore",
    "CorrelationReport",
    "DomainCorrelation",
    "DomainCorrelator",
    "score_clustering",
    "FigureExporter",
    "DynamicsAnalyzer",
    "SeriesSummary",
    "cluster_by_threshold",
    "select_threshold",
    "SimhashIndex",
    "band_layout",
    "MaliciousIp",
    "SafeBrowsingAnalyzer",
    "SafeBrowsingFindings",
    "VirusTotalAnalyzer",
    "VirusTotalFindings",
    "PatternAnalyzer",
    "PatternBreakdown",
    "merge_repeats",
    "paa_reduce",
    "size_change_pattern",
    "tendency_vector",
    "RegionAnalyzer",
    "RegionUsage",
    "GaAccountStats",
    "TrackerAnalyzer",
    "TrackerHits",
    "analyze_ga_accounts",
    "ClusterUsage",
    "UptimeAnalyzer",
]
