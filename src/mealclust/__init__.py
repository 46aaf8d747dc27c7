"""Meal-taking activity clustering from binary home-sensor logs.

Ingests CSV sensor event logs, segments meal episodes in kitchen/dining
locations, and compares K-Means, GMM, and DBSCAN clusterings of episode
features under Davies-Bouldin model selection.
"""

from mealclust.events import EventTable, SensorEvent, parse_events, filter_meal_locations
from mealclust.episodes import ActivityEpisode, segment_episodes
from mealclust.features import FeatureMatrix, build_features, scale_features
from mealclust.kmeans import KMeansModel, kmeans_fit, assign, euclidean_distance
from mealclust.gmm import GmmParams, GmmModel, gmm_fit, gmm_density, responsibilities, category_summary
from mealclust.dbscan import DbscanResult, dbscan_fit, eps_neighborhood
from mealclust.validation import (
    SweepEntry,
    SweepReport,
    davies_bouldin,
    sweep_kmeans,
    sweep_gmm,
    sweep_dbscan,
)
from mealclust.synth import HouseholdProfile, MealCategory, generate_trace, default_profile

__version__ = "0.1.0"
